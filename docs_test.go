package puffer

import (
	"os"
	"regexp"
	"testing"
)

// docPath matches the repository paths the docs name: a package or file
// under cmd/ or internal/ (a Go identifier such as internal/baseline.RePlAce
// matches as its directory), a script, or a checked-in benchmark file.
var docPath = regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+(?:/[a-z0-9_]+)*(?:\.go)?|scripts/[A-Za-z0-9_-]+\.sh|BENCH_[a-z]+\.json`)

// TestDocPathsExist fails when a doc names a path the tree does not hold,
// such as a deleted command or a benchmark file that was never checked in.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docPath.FindAllString(string(data), -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}
}
