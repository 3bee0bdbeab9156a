package puffer

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The surface census (DESIGN.md §3n): every flag a binary
// under cmd/ registers, every pattern an HTTP mux is handed and every
// "puffer/<name>/vN" format literal in non-test code outside benchmark/ has
// exactly one row in the table of DESIGN.md §3n, naming one reader, and
// TestSurfaceCensus checks each row's evidence against the tree. The table
// is the only catalog.
//
// Readers:
//
//	ci      a .github/workflows file passes the flag
//	e2e     a scripts/*.sh line passes the flag or requests the route
//	bench   a benchmark/ file passes the flag
//	test    a _test.go file passes the flag, requests the route or parses
//	        the format
//	deploy  an operator's setting (an address, a directory, a duration, a
//	        limit or the log level); the evidence is README.md, which
//	        documents it
//
// A flag is named by "-name" standing alone (not inside a longer flag); in
// a Go file, by a string literal "-name" or "-name=…", so a comment does
// not count. A
// route is named by its path, with each {wildcard} filled by any one
// segment; a subtree pattern (a trailing "/") also by any path under it.
// A format is named by its string.

// surfaceHeader opens the one census table in DESIGN.md. It differs from
// the metric catalog's header, which TestMetricCensus requires be unique.
const surfaceHeader = "| Entry | Kind | Reader | Evidence |"

type surfaceEntry struct{ kind, at string }

// flagRegistrars are the flag.FlagSet methods that register a flag; the
// *Var forms take the name as their second argument.
var flagRegistrars = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

var formatLiteral = regexp.MustCompile(`^puffer/[a-z0-9-]+/v[0-9]+$`)

// surfaceEntries returns the outer surface by row name: "<binary> -<flag>",
// a mux pattern, or a format string.
func surfaceEntries(t *testing.T) map[string][]surfaceEntry {
	t.Helper()
	out := map[string][]surfaceEntry{}
	add := func(name, kind string, at token.Position) {
		out[name] = append(out[name], surfaceEntry{kind, at.String()})
	}
	walkNonTestGo(t, func(path string, fset *token.FileSet, f *ast.File) {
		binary := ""
		if parts := strings.Split(path, "/"); len(parts) == 3 && parts[0] == "cmd" {
			binary = parts[1]
		}
		var fn *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.FuncDecl:
				fn = n
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && formatLiteral.MatchString(v) {
					add(v, "format", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, _ := sel.X.(*ast.Ident)
				if arg, ok := flagRegistrars[sel.Sel.Name]; ok && binary != "" && recv != nil &&
					(recv.Name == "flag" || recv.Name == "fs") && len(n.Args) > arg {
					for _, name := range flagNames(t, fset, fn, n.Args[arg]) {
						add(binary+" -"+name, "flag", fset.Position(n.Pos()))
					}
				}
				if (sel.Sel.Name == "Handle" || sel.Sel.Name == "HandleFunc") && len(n.Args) == 2 {
					lit, ok := n.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						// slog.Handler.Handle(ctx, record) shares the name;
						// a mux pattern must be a literal.
						if sel.Sel.Name == "HandleFunc" {
							t.Errorf("%s: route pattern is not a string literal", fset.Position(n.Pos()))
						}
						return true
					}
					pattern, _ := strconv.Unquote(lit.Value)
					add(pattern, "route", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
	return out
}

// flagNames resolves a registration's name argument: a string literal, or
// a field of a table-driven loop (`fs.Bool(s.name, …)`), whose names are
// the literals in that field of the enclosing function's []struct table.
func flagNames(t *testing.T, fset *token.FileSet, fn *ast.FuncDecl, arg ast.Expr) []string {
	if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		name, _ := strconv.Unquote(lit.Value)
		return []string{name}
	}
	sel, ok := arg.(*ast.SelectorExpr)
	if !ok || fn == nil {
		t.Errorf("%s: flag name is neither a literal nor a table field", fset.Position(arg.Pos()))
		return nil
	}
	var names []string
	ast.Inspect(fn, func(n ast.Node) bool {
		table, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		arr, ok := table.Type.(*ast.ArrayType)
		if !ok {
			return true
		}
		st, ok := arr.Elt.(*ast.StructType)
		if !ok {
			return true
		}
		field := -1
		i := 0
		for _, fl := range st.Fields.List {
			for _, id := range fl.Names {
				if id.Name == sel.Sel.Name {
					field = i
				}
				i++
			}
		}
		if field < 0 {
			return true
		}
		for _, el := range table.Elts {
			row, ok := el.(*ast.CompositeLit)
			if !ok || len(row.Elts) <= field {
				continue
			}
			if lit, ok := row.Elts[field].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names = append(names, name)
			} else {
				t.Errorf("%s: table flag name is not a literal", fset.Position(row.Pos()))
			}
		}
		return false
	})
	if len(names) == 0 {
		t.Errorf("%s: no table in %s supplies the flag name %s", fset.Position(arg.Pos()), fn.Name.Name, sel.Sel.Name)
	}
	return names
}

type surfaceRow struct {
	name, kind, reader, evidence string
	line                         int
}

// surfaceCatalog reads the census table's rows out of DESIGN.md, failing
// unless exactly one such table exists.
func surfaceCatalog(t *testing.T) []surfaceRow {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	var rows []surfaceRow
	tables := 0
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != surfaceHeader {
			continue
		}
		tables++
		for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			cells := strings.Split(strings.Trim(strings.TrimSpace(lines[i]), "|"), "|")
			if len(cells) != 4 {
				t.Errorf("DESIGN.md:%d: a census row has 4 cells: %q", i+1, lines[i])
				continue
			}
			for k := range cells {
				cells[k] = strings.Trim(strings.TrimSpace(cells[k]), "`")
			}
			rows = append(rows, surfaceRow{cells[0], cells[1], cells[2], cells[3], i + 1})
		}
	}
	if tables != 1 {
		t.Errorf("DESIGN.md holds %d surface census tables (%q), want exactly 1", tables, surfaceHeader)
	}
	return rows
}

// namesEntry reports whether src names the row's entry (see the rules at
// the top of this file).
func namesEntry(src string, r surfaceRow) bool {
	switch r.kind {
	case "flag":
		_, name, _ := strings.Cut(r.name, " ")
		if strings.HasSuffix(r.evidence, ".go") {
			return strings.Contains(src, strconv.Quote(name)) || strings.Contains(src, `"`+name+"=")
		}
		return regexp.MustCompile(`(^|[^\w-])` + regexp.QuoteMeta(name) + `([^\w-]|$)`).MatchString(src)
	case "route":
		path := r.name
		if _, p, ok := strings.Cut(path, " "); ok {
			path = p
		}
		segs := strings.Split(path, "/")
		for i, s := range segs {
			if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
				segs[i] = "[^/\\s\"'`]+"
			} else {
				segs[i] = regexp.QuoteMeta(s)
			}
		}
		end := `([\s"'` + "`" + `?]|$)`
		if strings.HasSuffix(path, "/") && path != "/" {
			end = ""
		}
		return regexp.MustCompile(strings.Join(segs, "/") + end).MatchString(src)
	default:
		return strings.Contains(src, r.name)
	}
}

func TestSurfaceCensus(t *testing.T) {
	entries := surfaceEntries(t)
	rows := surfaceCatalog(t)

	seen := map[string]bool{}
	for _, r := range rows {
		at := "DESIGN.md:" + strconv.Itoa(r.line) + ": " + r.name
		if seen[r.name] {
			t.Errorf("%s: more than one row", at)
		}
		seen[r.name] = true
		es, ok := entries[r.name]
		if !ok {
			t.Errorf("%s: row with no %s in non-test code outside benchmark/; delete the row", at, r.kind)
		}
		for _, e := range es {
			if e.kind != r.kind {
				t.Errorf("%s: catalog kind %q, but %s is a %s", at, r.kind, e.at, e.kind)
			}
		}
		var fits bool
		switch r.reader {
		case "ci":
			fits = strings.HasPrefix(r.evidence, ".github/workflows/")
		case "e2e":
			fits, _ = filepath.Match("scripts/*.sh", r.evidence)
		case "bench":
			fits = strings.HasPrefix(r.evidence, "benchmark/")
		case "test":
			fits = strings.HasSuffix(r.evidence, "_test.go")
		case "deploy":
			fits = r.kind == "flag" && r.evidence == "README.md"
		default:
			t.Errorf("%s: unknown reader %q", at, r.reader)
			continue
		}
		if !fits {
			t.Errorf("%s: %s is no %s reader of a %s", at, r.evidence, r.reader, r.kind)
		}
		b, err := os.ReadFile(filepath.FromSlash(r.evidence))
		if err != nil {
			t.Errorf("%s: evidence: %v", at, err)
			continue
		}
		if !namesEntry(string(b), r) {
			t.Errorf("%s: %s no longer names it (%s); name its reader or delete the %s", at, r.evidence, r.reader, r.kind)
		}
	}
	for name, es := range entries {
		if !seen[name] {
			t.Errorf("%s: %s at %s with no row in DESIGN.md §3n; name its reader or delete it", name, es[0].kind, es[0].at)
		}
	}
}
