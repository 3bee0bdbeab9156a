package bookshelf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseAux feeds arbitrary bytes to the .aux entry point. Parse must
// never panic: malformed aux lines, references to missing files, and
// hostile filenames must all come back as errors (or as a successfully
// parsed design, for inputs that happen to be valid).
func FuzzParseAux(f *testing.F) {
	f.Add([]byte("RowBasedPlacement : d.nodes d.nets d.pl d.scl d.wts\n"))
	f.Add([]byte("d.nodes"))
	f.Add([]byte(":::\n:"))
	f.Add([]byte("UCLA aux 1.0\n# comment\nx : a.route ..aux .nodes\n"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		aux := filepath.Join(dir, "fuzz.aux")
		if err := os.WriteFile(aux, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Give the aux a plausible sibling so inputs that reference
		// "fuzz.nodes" get past the open and into the node parser.
		os.WriteFile(filepath.Join(dir, "fuzz.nodes"),
			[]byte("UCLA nodes 1.0\nNumNodes : 1\na 2 1\n"), 0o644)
		d, err := Parse(aux)
		if err == nil && d == nil {
			t.Fatal("Parse returned nil design and nil error")
		}
	})
}

// FuzzParseNodes drives arbitrary bytes through the .nodes parser (and the
// design validation behind it) via a fixed aux file.
func FuzzParseNodes(f *testing.F) {
	f.Add([]byte("UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\na 2 1\np 0 0 terminal\n"))
	f.Add([]byte("a 2 1\na 2 1\n"))                    // duplicate names
	f.Add([]byte("a NaN Inf\nb -1 -2\nc 1e308 1e308")) // hostile numerics
	f.Add([]byte("a 2\n"))                             // short line
	f.Add([]byte("# only a comment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f.aux"),
			[]byte("RowBasedPlacement : f.nodes\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "f.nodes"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Parse(filepath.Join(dir, "f.aux"))
		if err == nil && d == nil {
			t.Fatal("Parse returned nil design and nil error")
		}
	})
}

// FuzzParseNets fuzzes the .nets parser against a small fixed netlist, the
// file with the most positional indexing in the package.
func FuzzParseNets(f *testing.F) {
	f.Add([]byte("NumNets : 1\nNetDegree : 2 n0\na I : 0.5 0.5\nb O : -0.5 -0.5\n"))
	f.Add([]byte("a I\nNetDegree : 1\n"))     // pin before any net
	f.Add([]byte("NetDegree : 1\nzz I\n"))    // unknown node
	f.Add([]byte("NetDegree : 1\na I : x y")) // unparsable offsets
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f.aux"),
			[]byte("RowBasedPlacement : f.nodes f.nets\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "f.nodes"),
			[]byte("a 2 1\nb 3 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "f.nets"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Parse(filepath.Join(dir, "f.aux"))
		if err == nil && d == nil {
			t.Fatal("Parse returned nil design and nil error")
		}
	})
}

// sampleFiles returns the files Write produces for sampleDesign, by name.
func sampleFiles(f *testing.F) map[string][]byte {
	src := f.TempDir()
	if _, err := Write(sampleDesign(), src, "f"); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
			f.Fatal(err)
		}
	}
	return files
}

// fuzzSibling fuzzes the file with extension ext of a complete design as
// Write produces it: the seeds are that file and its truncations plus the
// extra hostile inputs, and every input replaces the file next to the
// design's other files before Parse reads the aux.
func fuzzSibling(f *testing.F, ext string, extra ...string) {
	fuzzFile(f, sampleFiles(f), ext, extra...)
}

// fuzzSibling's body over a given file set, which names f.aux.
func fuzzFile(f *testing.F, files map[string][]byte, ext string, extra ...string) {
	seed, ok := files["f."+ext]
	if !ok {
		f.Fatalf("no f.%s to fuzz", ext)
	}
	for _, n := range []int{len(seed), len(seed) - 1, 3 * len(seed) / 4, len(seed) / 2, len(seed) / 4, 0} {
		f.Add(seed[:n])
	}
	for _, s := range extra {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for name, content := range files {
			if name == "f."+ext {
				content = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Parse(filepath.Join(dir, "f.aux"))
		if err == nil && d == nil {
			t.Fatal("Parse returned nil design and nil error")
		}
	})
}

// FuzzParsePl fuzzes the .pl parser: positions and FIXED flags of the
// nodes the .nodes file declared.
func FuzzParsePl(f *testing.F) {
	fuzzSibling(f, "pl",
		"zz 1 2 : N\n",           // unknown node
		"a NaN Inf : N /FIXED\n", // hostile numerics
		"a 1\nb x y\n")           // short line, unparsable position
}

// FuzzParseScl fuzzes the .scl parser, whose rows make the placement
// region.
func FuzzParseScl(f *testing.F) {
	fuzzSibling(f, "scl",
		"End\nEnd\nCoreRow\n", // unbalanced blocks
		"CoreRow Horizontal\nSubrowOrigin : 1 NumSites\nEnd\n", // dangling NumSites
		"CoreRow Horizontal\n Height : -1\n Sitewidth : NaN\n NumSites : 1e308\nEnd\n")
}

// FuzzParseWts fuzzes the .wts parser: weights by net name.
func FuzzParseWts(f *testing.F) {
	fuzzSibling(f, "wts",
		"clk NaN\nd0 -Inf\n", // hostile weights
		"clk\nzz 2\n")        // short line, unknown net
}

// FuzzParseRoute fuzzes the .route parser and its installation into the
// design (an upload's aux may list one): every count it reads must be
// bounded by the data behind it.
func FuzzParseRoute(f *testing.F) {
	files := sampleFiles(f)
	route := filepath.Join(f.TempDir(), "f.route")
	if err := WriteRoute(sampleDesign(), route, 10, 5); err != nil {
		f.Fatal(err)
	}
	var err error
	if files["f.route"], err = os.ReadFile(route); err != nil {
		f.Fatal(err)
	}
	files["f.aux"] = append(bytes.TrimRight(files["f.aux"], "\n"), " f.route\n"...)
	fuzzFile(f, files, "route", hostileRoutes...)
}
