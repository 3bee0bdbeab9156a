package puffer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The metric census (DESIGN.md §3c): every metric name
// emitted from non-test code outside benchmark/ has exactly one row in the
// catalog table of DESIGN.md §3c, naming its kind and one reader, and
// TestMetricCensus checks each row's evidence against the tree. The table is
// the only catalog; no Go-side copy of it exists.
//
// Readers:
//
//	bench    a benchmark/ file reads the name ("name" quoted in it)
//	e2e      a scripts/*.sh line names it, dotted or in the . → _ Prometheus form
//	slo      an obs.Objective in the evidence file (internal/serve) judges
//	         the histogram field the name is resolved into
//	data     non-test code outside benchmark/ reads the value back
//	test     a _test.go file asserts its value
//	pending  a ROADMAP item will read it; the evidence is "item N" and
//	         ROADMAP.md must name the instrument
//
// Generic dumps — /metrics, /api/v1/ops, pufferctl top, puffer diag — print
// whatever exists, so a deleted name never shows up missing there; they are
// no reader.

// metricKinds maps the registry's resolver methods to the catalog's Kind.
var metricKinds = map[string]string{
	"Counter": "counter", "Gauge": "gauge", "Series": "series", "Histogram": "histogram",
}

type metricEmit struct{ kind, at string }

// walkNonTestGo parses every non-test .go file outside benchmark/ and
// hands each to fn with its slash-separated path.
func walkNonTestGo(t *testing.T, fn func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if path == "benchmark" || path == "testdata" || (path != "." && strings.HasPrefix(de.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// metricEmits returns the Counter/Gauge/Series/Histogram("name") calls of
// every non-test .go file outside benchmark/ by name.
func metricEmits(t *testing.T) map[string][]metricEmit {
	t.Helper()
	out := map[string][]metricEmit{}
	walkNonTestGo(t, func(path string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := metricKinds[sel.Sel.Name]
			if !ok {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				// internal/obs forwards the names it is handed; anywhere
				// else a computed name would escape the census.
				if filepath.ToSlash(filepath.Dir(path)) != "internal/obs" {
					t.Errorf("%s: metric name is not a string literal", fset.Position(call.Pos()))
				}
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", fset.Position(lit.Pos()), err)
				return true
			}
			out[name] = append(out[name], metricEmit{kind, fset.Position(call.Pos()).String()})
			return true
		})
	})
	return out
}

type metricRow struct {
	name, kind, reader, evidence string
	line                         int
}

// metricCatalogHeader opens the one catalog table in DESIGN.md.
const metricCatalogHeader = "| Name | Kind | Reader | Evidence |"

// metricCatalog reads the catalog table's rows out of DESIGN.md, failing
// unless exactly one such table exists.
func metricCatalog(t *testing.T) []metricRow {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	var rows []metricRow
	tables := 0
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != metricCatalogHeader {
			continue
		}
		tables++
		for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			cells := strings.Split(strings.Trim(strings.TrimSpace(lines[i]), "|"), "|")
			if len(cells) != 4 {
				t.Errorf("DESIGN.md:%d: a catalog row has 4 cells: %q", i+1, lines[i])
				continue
			}
			for k := range cells {
				cells[k] = strings.Trim(strings.TrimSpace(cells[k]), "`")
			}
			rows = append(rows, metricRow{cells[0], cells[1], cells[2], cells[3], i + 1})
		}
	}
	if tables != 1 {
		t.Errorf("DESIGN.md holds %d metric catalog tables (%q), want exactly 1", tables, metricCatalogHeader)
	}
	return rows
}

// promMetricName is the name /metrics exposes: characters outside
// [a-zA-Z0-9_:] become underscores.
func promMetricName(name string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == ':' {
			return r
		}
		return '_'
	}, name)
}

// sloJudged returns the histogram names an obs.Objective literal in the Go
// file at path refers to, through the fields the file resolves them into
// (s.hX = s.reg.Histogram("name")).
func sloJudged(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	field := map[string]string{}
	var objectives []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			lhs, ok1 := n.Lhs[0].(*ast.SelectorExpr)
			call, ok2 := n.Rhs[0].(*ast.CallExpr)
			if !ok1 || !ok2 || len(call.Args) != 1 {
				return true
			}
			sel, ok1 := call.Fun.(*ast.SelectorExpr)
			lit, ok2 := call.Args[0].(*ast.BasicLit)
			if ok1 && ok2 && sel.Sel.Name == "Histogram" {
				field[lhs.Sel.Name], _ = strconv.Unquote(lit.Value)
			}
		case *ast.CompositeLit:
			if typ, ok := n.Type.(*ast.SelectorExpr); ok && typ.Sel.Name == "Objective" {
				objectives = append(objectives, n)
			}
		}
		return true
	})
	judged := map[string]bool{}
	for _, o := range objectives {
		ast.Inspect(o, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && field[sel.Sel.Name] != "" {
				judged[field[sel.Sel.Name]] = true
			}
			return true
		})
	}
	return judged, nil
}

func TestMetricCensus(t *testing.T) {
	emits := metricEmits(t)
	rows := metricCatalog(t)

	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		at := "DESIGN.md:" + strconv.Itoa(r.line) + ": " + r.name
		if strings.ContainsAny(r.name, "*{}") {
			t.Errorf("%s: one row per name, no wildcards", at)
			continue
		}
		if seen[r.name] {
			t.Errorf("%s: more than one row", at)
		}
		seen[r.name] = true
		es, ok := emits[r.name]
		if !ok {
			t.Errorf("%s: row with no emit in non-test code outside benchmark/; delete the row", at)
		}
		for _, e := range es {
			if e.kind != r.kind {
				t.Errorf("%s: catalog kind %q, but %s resolves it as a %s", at, r.kind, e.at, e.kind)
			}
		}

		if r.reader == "pending" {
			if !strings.HasPrefix(r.evidence, "item ") {
				t.Errorf("%s: pending evidence is a ROADMAP item (\"item N\"), not %q", at, r.evidence)
			}
			if !strings.Contains(string(roadmap), r.name) {
				t.Errorf("%s: ROADMAP.md no longer names it (was %s); read it or delete it", at, r.evidence)
			}
			continue
		}
		b, err := os.ReadFile(filepath.FromSlash(r.evidence))
		if err != nil {
			t.Errorf("%s: evidence: %v", at, err)
			continue
		}
		src := string(b)
		// fits: the evidence is the kind of file the reader names;
		// names: it still reads this instrument.
		names := strings.Contains(src, strconv.Quote(r.name))
		isTest := strings.HasSuffix(r.evidence, "_test.go")
		var fits bool
		switch r.reader {
		case "bench":
			fits = strings.HasPrefix(r.evidence, "benchmark/")
		case "e2e":
			fits, _ = filepath.Match("scripts/*.sh", r.evidence)
			names = strings.Contains(src, r.name) || strings.Contains(src, promMetricName(r.name))
		case "slo":
			fits = strings.HasPrefix(r.evidence, "internal/serve/")
			judged, err := sloJudged(r.evidence)
			if err != nil {
				t.Errorf("%s: %v", at, err)
			}
			names = judged[r.name]
		case "data":
			fits = !isTest && !strings.HasPrefix(r.evidence, "benchmark/")
		case "test":
			fits = isTest
		default:
			t.Errorf("%s: unknown reader %q", at, r.reader)
			continue
		}
		if !fits {
			t.Errorf("%s: %s is no %s reader", at, r.evidence, r.reader)
		}
		if !names {
			t.Errorf("%s: %s no longer reads it (%s); name its reader or delete the instrument", at, r.evidence, r.reader)
		}
	}

	prom := map[string]string{}
	for name, es := range emits {
		if !seen[name] {
			t.Errorf("%s: emitted at %s with no catalog row in DESIGN.md §3c; name its reader or delete the instrument", name, es[0].at)
		}
		if other, ok := prom[promMetricName(name)]; ok {
			t.Errorf("%s and %s both expose as %s on /metrics", name, other, promMetricName(name))
		}
		prom[promMetricName(name)] = name
	}
}
