package fsx

import (
	"os"
	"path/filepath"
	"testing"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func TestAtomicWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	for _, content := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := AtomicWriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("read back %q, want %q", got, content)
		}
	}
	if got := names(t, dir); len(got) != 1 || got[0] != "doc.json" {
		t.Errorf("directory holds %v after the writes, want only doc.json", got)
	}
}

// TestAtomicWriteFileFailureLeavesPreviousFile: when the temporary file
// cannot be created (the destination directory is missing) or cannot be
// renamed into place (the destination is a non-empty directory), the call
// reports the error, what was on disk before is byte-identical, and no
// temporary file stays behind.
func TestAtomicWriteFileFailureLeavesPreviousFile(t *testing.T) {
	const previous = "previous complete document\n"
	write := func(path string) {
		if err := os.WriteFile(path, []byte(previous), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// setup puts the previous document somewhere under dir and returns
		// its path and the path AtomicWriteFile must fail to write.
		setup func(dir string) (kept, target string)
	}{
		{"create-temp", func(dir string) (string, string) {
			kept := filepath.Join(dir, "keep.json")
			write(kept)
			return kept, filepath.Join(dir, "missing", "keep.json")
		}},
		{"rename", func(dir string) (string, string) {
			dest := filepath.Join(dir, "dest")
			if err := os.Mkdir(dest, 0o755); err != nil {
				t.Fatal(err)
			}
			kept := filepath.Join(dest, "keep.json")
			write(kept)
			return kept, dest
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			kept, target := tc.setup(dir)
			before := names(t, dir)
			if err := AtomicWriteFile(target, []byte("next")); err == nil {
				t.Fatalf("AtomicWriteFile(%s) succeeded", target)
			}
			if after := names(t, dir); len(after) != 1 || after[0] != before[0] {
				t.Errorf("directory holds %v after the failure, held %v before", after, before)
			}
			got, err := os.ReadFile(kept)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != previous {
				t.Errorf("previous file now reads %q", got)
			}
		})
	}
}
