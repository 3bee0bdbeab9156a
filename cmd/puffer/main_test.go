package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/cas"
	"puffer/internal/eco"
	"puffer/internal/synth"
	"puffer/internal/xfarm"
)

// runOK runs one command line in-process and returns what it printed.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("puffer %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// runErr runs one command line that must fail and returns its error text
// and what it printed before failing.
func runErr(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	if err == nil {
		t.Fatalf("puffer %s: succeeded, want an error\n%s", strings.Join(args, " "), out.String())
	}
	return err.Error(), out.String()
}

func mustContain(t *testing.T, what, got string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("%s: missing %q in:\n%s", what, w, got)
		}
	}
}

// TestPlaceThenDiag drives the bare flag-only placement flow with every
// artifact flag, then reads the artifacts back through diag.
func TestPlaceThenDiag(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "run.json")
	cp := filepath.Join(dir, "cp.json")
	placed := filepath.Join(dir, "placed")
	out := runOK(t, "-design", "OR1200", "-scale", "3000",
		"-report", rep, "-checkpoint", cp, "-out", placed)
	mustContain(t, "place", out,
		"generated OR1200 at 1:3000", "PUFFER: GP iters=", "legality check: clean",
		"routed: HOF=", "run report written to "+rep)

	d, err := bookshelf.Parse(filepath.Join(placed, "OR1200_placed.aux"))
	if err != nil {
		t.Fatalf("-out did not write a parsable design: %v", err)
	}
	if len(d.Cells) == 0 {
		t.Fatal("-out wrote an empty design")
	}

	mustContain(t, "diag report", runOK(t, "diag", rep),
		"run report "+rep+" (puffer/run-report/v1)", "design OR1200", "stage place", "round trip: ok")
	mustContain(t, "diag checkpoint", runOK(t, "diag", cp),
		"checkpoint "+cp+" (puffer/checkpoint/v1)", "stage: dp", "bbox: [")

	alien := filepath.Join(dir, "alien.json")
	if err := os.WriteFile(alien, []byte(`{"format": "puffer/alien/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	msg, _ := runErr(t, "diag", alien)
	mustContain(t, "diag unknown format", msg, `"puffer/alien/v9"`, "puffer/checkpoint/v1")

	bare := filepath.Join(dir, "bare.json")
	if err := os.WriteFile(bare, []byte(`{"stage": "dp"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	msg, _ = runErr(t, "diag", bare)
	mustContain(t, "diag missing format", msg, `unknown artifact format ""`)

	// A file that claims a format is still held to that format's strict
	// loader.
	fake := filepath.Join(dir, "fake.json")
	if err := os.WriteFile(fake, []byte(`{"format": "puffer/checkpoint/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runErr(t, "diag", fake)
}

// TestDiagSessionExploreStateAndCAS covers the artifact kinds the daemon
// and the coordinator write.
func TestDiagSessionExploreStateAndCAS(t *testing.T) {
	dir := t.TempDir()

	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	s, err := eco.New(synth.Generate(p, 3000, 1), puffer.DefaultConfig(), eco.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(context.Background()); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snapshot.json")
	if err := sn.Save(snap); err != nil {
		t.Fatal(err)
	}
	mustContain(t, "diag session", runOK(t, "diag", snap),
		"(puffer/eco-session/v1)", "deltas applied: 0", "stage: dp", "padding history:")

	st := &xfarm.State{
		Format: xfarm.StateFormat, Seed: 1, Budget: 3, Attempts: 2,
		Trials: []xfarm.TrialRecord{
			{Seq: 0, Round: 0, Index: 0, X: map[string]float64{"beta": 1}, State: xfarm.TrialDone, Score: 1.5},
			{Seq: 1, Round: 1, Group: "cong", Index: 0, X: map[string]float64{"beta": 2}, State: xfarm.TrialSubmitted},
		},
		Best: map[string]float64{"beta": 1}, BestScore: 1.5,
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "explore-state.json")
	if err := os.WriteFile(state, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mustContain(t, "diag explore state", runOK(t, "diag", state),
		"attempts: 2 (resumed 1 time(s))", "trials: 2 (done 1, submitted 1", "best assignment (score 1.5)")

	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Put([]byte("unreferenced blob")); err != nil {
		t.Fatal(err)
	}
	mustContain(t, "diag cas", runOK(t, "diag", filepath.Join(dir, "cas")), "1 blobs, 0 cached results", "BLOB")
	mustContain(t, "diag cas -gc", runOK(t, "diag", "-gc", filepath.Join(dir, "cas")), "gc dry run: 1 blobs eligible")
	msg, _ := runErr(t, "diag", filepath.Join(dir, "not-a-store"))
	mustContain(t, "diag on a missing path", msg, "not-a-store")
	if err := os.Mkdir(filepath.Join(dir, "plain"), 0o755); err != nil {
		t.Fatal(err)
	}
	msg, _ = runErr(t, "diag", filepath.Join(dir, "plain"))
	mustContain(t, "diag on a plain directory", msg, "is not a CAS store")
	if _, err := os.Stat(filepath.Join(dir, "plain", "blobs")); err == nil {
		t.Error("diag on a plain directory created a store in it")
	}
	msg, _ = runErr(t, "diag", "-gc", state)
	mustContain(t, "diag -gc on a file", msg, "CAS store directory")
	msg, _ = runErr(t, "diag")
	mustContain(t, "diag without a path", msg, "usage: puffer diag")
}

func TestBenchgenWritesParsableBookshelf(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, "benchgen", "-design", "OR1200", "-scale", "3000", "-dir", dir)
	mustContain(t, "benchgen", out, "OR1200", filepath.Join(dir, "OR1200.aux"))
	d, err := bookshelf.Parse(filepath.Join(dir, "OR1200.aux"))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := synth.ProfileByName("OR1200")
	want := synth.Generate(p, 3000, 1)
	if len(d.Cells) != len(want.Cells) || len(d.Nets) != len(want.Nets) || len(d.Pins) != len(want.Pins) {
		t.Errorf("re-parsed %d cells, %d nets, %d pins; generated %d, %d, %d",
			len(d.Cells), len(d.Nets), len(d.Pins), len(want.Cells), len(want.Nets), len(want.Pins))
	}
}

// TestBaselinesRejectPufferOnlyFlags checks that a baseline placer refuses
// each flag only the PUFFER flow reads before it generates or places
// anything.
func TestBaselinesRejectPufferOnlyFlags(t *testing.T) {
	dir := t.TempDir()
	for _, placer := range []string{"replace", "commercial"} {
		for _, name := range pufferOnly {
			val := filepath.Join(dir, name+".out")
			if name == "timeout" {
				val = "1m"
			}
			msg, out := runErr(t, "-design", "OR1200", "-scale", "3000", "-placer", placer, "-"+name, val)
			mustContain(t, placer+" -"+name, msg, "-"+name+" requires -placer puffer")
			if out != "" {
				t.Errorf("%s -%s: printed %q before rejecting", placer, name, out)
			}
			if _, err := os.Stat(val); err == nil {
				t.Errorf("%s -%s: wrote %s", placer, name, val)
			}
		}
	}
	msg, _ := runErr(t, "-design", "OR1200", "-placer", "replace", "-report", "r.json", "-strategy", "s.json")
	mustContain(t, "two flags", msg, "-report, -strategy requires")
	msg, _ = runErr(t, "-design", "OR1200", "-placer", "annealing")
	mustContain(t, "unknown placer", msg, `unknown placer "annealing"`)
	msg, _ = runErr(t, "explor", "-design", "OR1200")
	mustContain(t, "misspelt subcommand", msg, `unknown subcommand "explor"`)
}

// TestExploreThenPlace runs the paper's loop in miniature: tune a strategy
// on a tiny design, then place with the file explore wrote.
func TestExploreThenPlace(t *testing.T) {
	s := filepath.Join(t.TempDir(), "s.json")
	out := runOK(t, "explore", "-scale", "6000", "-budget", "2", "-iters", "40", "-out", s)
	mustContain(t, "explore", out, "tuning on OR1200 at 1:6000", "observations made",
		"best strategy written to "+s, "tuned(best)  total overflow")
	out = runOK(t, "-design", "OR1200", "-scale", "3000", "-strategy", s, "-noeval")
	mustContain(t, "place with the tuned strategy", out, "PUFFER: GP iters=", "legality check: clean")
}

func TestExperimentsRunsOnlySelectedSections(t *testing.T) {
	out := runOK(t, "experiments", "-table1", "-fig1", "-scale", "3000")
	mustContain(t, "experiments", out, "TABLE I:", "FIG 1")
	if strings.Contains(out, "TABLE II") || strings.Contains(out, "ABLATIONS") {
		t.Errorf("unselected sections ran:\n%s", out)
	}
}
