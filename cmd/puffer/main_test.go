package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"puffer"
	"puffer/internal/baseline"
	"puffer/internal/bookshelf"
	"puffer/internal/eco"
	"puffer/internal/synth"
	"puffer/pipeline"
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

// reportStrategy reads config.Strategy from the run report at path.
func reportStrategy(t *testing.T, path string) map[string]any {
	t.Helper()
	var report struct {
		Config struct{ Strategy map[string]any }
	}
	if data, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	return report.Config.Strategy
}

// TestPlaceThenDiag drives the bare flag-only placement flow with every
// artifact flag, then reads the artifacts back through diag.
func TestPlaceThenDiag(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "run.json")
	cp := filepath.Join(dir, "cp.json")
	placed := filepath.Join(dir, "placed")
	out := runOK(t, "-design", "OR1200", "-scale", "3000", "-workers", "2",
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
	mustContain(t, "place a Bookshelf design", runOK(t, "-aux", filepath.Join(placed, "OR1200_placed.aux"), "-iters", "30", "-noeval"),
		"loaded OR1200_placed: ", "legality check: clean")

	mustContain(t, "diag report", runOK(t, "diag", rep),
		"run report "+rep+" (puffer/run-report/v2)", "puffer flow on design OR1200", "engine "+pipeline.EngineVersion, "stage place", "stage route", "round trip: ok")
	if st := reportStrategy(t, rep); st["Tau"] == nil || st["Cong"] == nil {
		t.Errorf("PUFFER report's strategy lost the optimizer's parameters: %v", st)
	}
	mustContain(t, "diag checkpoint", runOK(t, "diag", cp),
		"checkpoint "+cp+" (puffer/checkpoint/v1)", "stage: route", "bbox: [")

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

// TestDiagSessionSnapshot covers the artifact kind only the daemon's
// sessions write, and diag's refusals of what it does not read.
func TestDiagSessionSnapshot(t *testing.T) {
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

	msg, _ := runErr(t, "diag", filepath.Join(dir, "missing.json"))
	mustContain(t, "diag on a missing path", msg, "missing.json")
	msg, _ = runErr(t, "diag", dir)
	mustContain(t, "diag on a directory", msg, "is a directory")
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

	// Custom mode: a bespoke profile, with its ISPD .route file.
	out = runOK(t, "benchgen", "-dir", dir, "-cells", "400", "-nets", "380", "-pins", "1300",
		"-macros", "2", "-stress", "0.3", "-locality", "0.7", "-route")
	mustContain(t, "benchgen custom", out, "CUSTOM", "macros=2", "cells=400", "nets=380")
	d, err = bookshelf.Parse(filepath.Join(dir, "CUSTOM.aux"))
	if err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Cells != 400 || s.Macros != 2 || s.Nets != 380 {
		t.Errorf("custom design re-parsed as %+v", s)
	}
	if _, err := bookshelf.ParseRoute(filepath.Join(dir, "CUSTOM.route")); err != nil {
		t.Errorf("-route wrote no parsable .route file: %v", err)
	}
}

// TestResumeEqualsUninterrupted checks item 11's contract at the command
// line: checkpoints saved after the place and dp stages through the
// pipeline API, resumed with -resume, end where an uninterrupted run does,
// and a resumed run's report still names the PUFFER flow and its whole
// strategy although it built no optimizer.
func TestResumeEqualsUninterrupted(t *testing.T) {
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	cfg := puffer.DefaultConfig()
	cfg.Place.Seed = 1
	rc, err := pipeline.NewRunContext(synth.Generate(p, 3000, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pl := pipeline.New()
	pl.Checkpointer = func(c *pipeline.Checkpoint) error { return c.Save(filepath.Join(dir, c.Stage+".json")) }
	if err := pl.Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}

	whole := runOK(t, "-design", "OR1200", "-scale", "3000", "-seed", "1")
	hpwl := regexp.MustCompile(`(?m)^PUFFER: .*, HPWL=(\d+)$`)
	routed := regexp.MustCompile(`(?m)^routed: .*$`)
	for _, stage := range []string{pipeline.StagePlace, pipeline.StageDP} {
		cp, rep := filepath.Join(dir, stage+".json"), filepath.Join(dir, stage+"-report.json")
		resumed := runOK(t, "-design", "OR1200", "-scale", "3000", "-seed", "1", "-resume", cp, "-report", rep)
		mustContain(t, "resumed run", resumed, `resuming after stage "`+stage+`" from `+cp)
		for _, re := range []*regexp.Regexp{hpwl, routed} {
			w, r := re.FindStringSubmatch(whole), re.FindStringSubmatch(resumed)
			if w == nil || r == nil {
				t.Fatalf("no %s line:\n%s\n%s", re, whole, resumed)
			}
			if w[len(w)-1] != r[len(r)-1] {
				t.Errorf("after %s: uninterrupted %q, resumed %q", stage, w[len(w)-1], r[len(r)-1])
			}
		}
		rec, err := pipeline.LoadRecord(rep)
		if err != nil {
			t.Fatal(err)
		}
		if st := reportStrategy(t, rep); rec.Flow != "puffer" || st["Tau"] == nil {
			t.Errorf("after %s: report of flow %q with strategy %v, want puffer's whole strategy", stage, rec.Flow, st)
		}
	}
}

// TestListTraceCSVAndVerbose reads -list, -trace-csv and -v: the CSV has
// one row per GP iteration, its padded column one true per padding round,
// and -v logs the stages.
func TestListTraceCSVAndVerbose(t *testing.T) {
	mustContain(t, "profile list", runOK(t, "-list"), "available profiles", "OR1200", "MEDIA_SUBSYS")

	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })
	csv := filepath.Join(t.TempDir(), "gp.csv")
	out := runOK(t, "-design", "OR1200", "-scale", "3000", "-noeval", "-trace-csv", csv, "-v")
	mustContain(t, "iteration CSV", out, "iteration trace written to "+csv)
	m := regexp.MustCompile(`GP iters=(\d+) .*, (\d+) padding rounds`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no PUFFER line:\n%s", out)
	}
	iters, _ := strconv.Atoi(m[1])
	rounds, _ := strconv.Atoi(m[2])
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] != "iter,hpwl,overflow,lambda,gamma,padded" || len(lines)-1 != iters {
		t.Errorf("CSV header %q and %d rows, want %d rows", lines[0], len(lines)-1, iters)
	}
	if padded := strings.Count(string(data), ",true\n"); padded != rounds || rounds == 0 {
		t.Errorf("%d padded rows, want the %d padding rounds", padded, rounds)
	}
	mustContain(t, "verbose log", logged.String(), "stage: global placement", "routability optimizer call 1 ")
}

// TestTimedOutRunKeepsItsTelemetry times a run out after more than one
// 4 KiB sink buffer of samples: the metric stream must still be whole JSON
// lines ending in a newline, and the trace must still be written. A host
// too slow to fill the buffer before the timeout retries with a doubled
// one; the uninterrupted run takes seconds even on a fast host.
func TestTimedOutRunKeepsItsTelemetry(t *testing.T) {
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "cut.jsonl"), filepath.Join(dir, "cut.json")
	var stream []byte
	for timeout := 2 * time.Second; len(stream) <= 4096; timeout *= 2 {
		if timeout > 16*time.Second {
			t.Fatalf("metric stream is %d bytes; the case needs more than one 4 KiB buffer", len(stream))
		}
		msg, out := runErr(t, "-design", "MEDIA_SUBSYS", "-scale", "200", "-timeout", timeout.String(), "-noeval",
			"-metrics", metrics, "-trace", trace)
		mustContain(t, "timed-out run", msg, "flow timed out during stage")
		mustContain(t, "timed-out run", out, "trace written to "+trace, "metric stream written to "+metrics)
		var err error
		if stream, err = os.ReadFile(metrics); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.HasSuffix(stream, []byte("\n")) {
		t.Fatalf("metric stream ends mid-record: %q", stream[len(stream)-min(len(stream), 80):])
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
		var sample struct {
			Series string  `json:"series"`
			Step   int     `json:"step"`
			Value  float64 `json:"value"`
		}
		if err := json.Unmarshal(line, &sample); err != nil || sample.Series == "" {
			t.Fatalf("metric line %d %q: %v", i+1, line, err)
		}
	}
	doc, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("timed-out run wrote no trace: %v", err)
	}
	if !json.Valid(doc) {
		t.Fatalf("trace is not JSON: %q", doc)
	}
}

// TestBaselinesRejectPufferOnlyFlags checks that a baseline placer refuses
// each flag only the PUFFER flow reads before it generates or places
// anything, and that the other bad flag combinations fail as early.
func TestBaselinesRejectPufferOnlyFlags(t *testing.T) {
	dir := t.TempDir()
	for _, placer := range []string{"replace", "commercial"} {
		for _, name := range pufferOnly {
			val := filepath.Join(dir, name+".out")
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
	pgm := filepath.Join(dir, "maps")
	msg, out := runErr(t, "-design", "OR1200", "-scale", "3000", "-pgm", pgm, "-noeval")
	mustContain(t, "-pgm with -noeval", msg, "-pgm", "-noeval")
	if out != "" {
		t.Errorf("-pgm -noeval: printed %q before rejecting", out)
	}
	if _, err := os.Stat(pgm); err == nil {
		t.Errorf("-pgm -noeval: created %s", pgm)
	}
	rep := filepath.Join(dir, "r.json")
	msg, _ = runErr(t, "-design", "OR1200", "-placer", "replace", "-report", rep, "-strategy", "s.json")
	mustContain(t, "a shared flag next to -strategy", msg, "-strategy requires -placer puffer")
	if _, err := os.Stat(rep); err == nil {
		t.Errorf("rejected run wrote %s", rep)
	}
	msg, _ = runErr(t, "-design", "OR1200", "-placer", "annealing")
	mustContain(t, "unknown placer", msg, `unknown placer "annealing"`)
	msg, _ = runErr(t, "explor", "-design", "OR1200")
	mustContain(t, "misspelt subcommand", msg, `unknown subcommand "explor"`)
}

// TestBaselinesRunThePipeline drives the comparators through the flags
// they share with PUFFER: a commercial run writes a report, a metric
// stream, a trace and checkpoints that diag reads; resuming it from its
// legalize checkpoint ends where the uninterrupted run does; and -timeout
// cuts a RePlAce run with its telemetry whole.
func TestBaselinesRunThePipeline(t *testing.T) {
	dir := t.TempDir()
	rep, metrics, trace, cp := filepath.Join(dir, "run.json"), filepath.Join(dir, "m.jsonl"),
		filepath.Join(dir, "t.json"), filepath.Join(dir, "cp.json")
	whole := runOK(t, "-design", "OR1200", "-scale", "3000", "-seed", "1", "-placer", "commercial", "-workers", "2",
		"-report", rep, "-metrics", metrics, "-trace", trace, "-checkpoint", cp)
	mustContain(t, "commercial run", whole, "Commercial_Inn: GP iters=", "legality check: clean",
		"run report written to "+rep, "metric stream written to "+metrics, "trace written to "+trace)
	if m := regexp.MustCompile(`, (\d+) padding rounds`).FindStringSubmatch(whole); m == nil || m[1] == "0" {
		t.Errorf("no router-guided padding round recorded:\n%s", whole)
	}
	stream, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, "metric stream", string(stream), `"series":"place.hpwl"`, `"series":"place.overflow"`)
	doc, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, "trace", string(doc), `"name":"run"`, `"name":"stage.place"`, `"name":"place.gp"`, `"name":"stage.dp"`)
	var report struct {
		Config struct{ Place struct{ Workers int } }
	}
	if data, err := os.ReadFile(rep); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Config.Place.Workers != 2 {
		t.Errorf("-workers 2 reached the engine as %d", report.Config.Place.Workers)
	}
	// The commercial round never reads PUFFER's strategy; its legalization
	// reads θ alone.
	if st := reportStrategy(t, rep); !reflect.DeepEqual(st, map[string]any{"Theta": 4.0}) {
		t.Errorf("commercial report's strategy = %v, want only Theta 4", st)
	}
	mustContain(t, "diag report", runOK(t, "diag", rep), "commercial flow on design OR1200", "stage place", "stage dp", "round trip: ok")
	mustContain(t, "diag checkpoint", runOK(t, "diag", cp), "stage: route")

	// The checkpoint file ends at route; the run's legalize checkpoint
	// comes from the same flow stopped after legalization.
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	cfg, stages, err := baseline.Flow(baseline.Commercial, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Place.Seed = 1
	rc, err := pipeline.NewRunContext(synth.Generate(p, 3000, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	legal := filepath.Join(dir, "legalize.json")
	pl := pipeline.New(stages[:2]...)
	pl.Checkpointer = func(c *pipeline.Checkpoint) error { return c.Save(legal) }
	if err := pl.Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	resumed := runOK(t, "-design", "OR1200", "-scale", "3000", "-seed", "1", "-placer", "commercial", "-resume", legal)
	mustContain(t, "resumed run", resumed, `resuming after stage "legalize" from `+legal)
	hpwl := regexp.MustCompile(`(?m)^Commercial_Inn: .*, HPWL=(\d+)$`)
	routed := regexp.MustCompile(`(?m)^routed: .*$`)
	for _, re := range []*regexp.Regexp{hpwl, routed} {
		w, r := re.FindStringSubmatch(whole), re.FindStringSubmatch(resumed)
		if w == nil || r == nil {
			t.Fatalf("no %s line:\n%s\n%s", re, whole, resumed)
		}
		if w[len(w)-1] != r[len(r)-1] {
			t.Errorf("uninterrupted %q, resumed %q", w[len(w)-1], r[len(r)-1])
		}
	}

	cut, cutTrace := filepath.Join(dir, "cut.jsonl"), filepath.Join(dir, "cut.json")
	msg, out := runErr(t, "-design", "MEDIA_SUBSYS", "-scale", "200", "-placer", "replace", "-timeout", "300ms", "-noeval",
		"-metrics", cut, "-trace", cutTrace)
	mustContain(t, "timed-out RePlAce run", msg, `flow timed out during stage "place"`)
	mustContain(t, "timed-out RePlAce run", out, "trace written to "+cutTrace, "metric stream written to "+cut)
	if stream, err := os.ReadFile(cut); err != nil || !bytes.HasSuffix(stream, []byte("\n")) {
		t.Errorf("cut metric stream %q, %v", stream[len(stream)-min(len(stream), 80):], err)
	}
	if doc, err := os.ReadFile(cutTrace); err != nil || !json.Valid(doc) {
		t.Errorf("cut trace is not JSON (%v)", err)
	}
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

// TestExperimentsSections runs every other section once on a tiny
// budget, then -all, which runs each but the runtime sweep.
func TestExperimentsSections(t *testing.T) {
	pgm := t.TempDir()
	out := runOK(t, "experiments", "-fig2", "-fig3", "-fig4", "-table2", "-fig5", "-ablations", "-rtsweep",
		"-designs", "OR1200", "-parallel", "-pgm", pgm, "-scale", "6000", "-iters", "20")
	mustContain(t, "experiments sections", out, "FIG 2", "FIG 3", "FIG 4", "TABLE II", "FIG 5",
		"PGM maps written to "+pgm, "ABLATIONS", "RUNTIME SCALING")
	if strings.Contains(out, "TABLE I:") {
		t.Errorf("unselected Table I ran:\n%s", out)
	}
	if maps, _ := filepath.Glob(filepath.Join(pgm, "*.pgm")); len(maps) == 0 {
		t.Error("-pgm wrote no maps")
	}
	out = runOK(t, "experiments", "-all", "-designs", "OR1200", "-scale", "6000", "-iters", "20")
	mustContain(t, "experiments -all", out, "TABLE I:", "FIG 1", "TABLE II", "FIG 5", "ABLATIONS")
	if strings.Contains(out, "RUNTIME SCALING") {
		t.Error("-all ran the runtime sweep")
	}
}
