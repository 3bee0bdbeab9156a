package pipeline_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"puffer/internal/geom"
	"puffer/internal/netlist"
	"puffer/internal/synth"
	"puffer/pipeline"
)

func TestCheckpointFormatStamped(t *testing.T) {
	d := synth.Generate(synth.Profiles[0], 6000, 1)
	cp := pipeline.Capture(pipeline.StagePlace, d)
	if cp.Format != pipeline.CheckpointFormat {
		t.Fatalf("Capture stamped format %q, want %q", cp.Format, pipeline.CheckpointFormat)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pipeline.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Format != pipeline.CheckpointFormat || loaded.Stage != pipeline.StagePlace {
		t.Fatalf("round trip lost header: %+v", loaded)
	}
}

// badCheckpoints are documents LoadCheckpoint must reject, with a word its
// error must carry. FuzzLoadCheckpoint seeds from them too.
var badCheckpoints = []struct {
	name, content, wantErr string
}{
	{"empty", "", "empty"},
	{"truncated", `{"format":"puffer/checkpoint/v1","stage":"place","x":[1.0,`, "decode"},
	{"not-json", "UCLA nodes 1.0", "decode"},
	{"foreign-object", `{"hello":"world"}`, "format"},
	{"unknown-format", `{"format":"puffer/checkpoint/v999","stage":"place"}`, "format"},
	{"missing-stage", `{"format":"puffer/checkpoint/v1","x":[],"y":[],"pad_w":[]}`, "stage"},
	{"ragged-slices", `{"format":"puffer/checkpoint/v1","stage":"place","x":[1],"y":[],"pad_w":[1]}`, "disagree"},
}

// Two v1 documents for a two-cell, one-net design: as written today, and as
// written while checkpoints still recorded a density-pyramid level.
const (
	plainCheckpoint  = `{"format":"puffer/checkpoint/v1","stage":"place","x":[1.5,7.25],"y":[2,3.5],"pad_w":[0,0.5],"net_weight":[2]}`
	legacyCheckpoint = `{"format":"puffer/checkpoint/v1","stage":"place","x":[1.5,7.25],"y":[2,3.5],"pad_w":[0,0.5],"net_weight":[2],"grid_level":2}`
)

func TestLoadCheckpointRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range badCheckpoints {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := pipeline.LoadCheckpoint(path)
			if err == nil {
				t.Fatalf("LoadCheckpoint accepted %s content %q", tc.name, tc.content)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckpointSaveAtomic(t *testing.T) {
	d := synth.Generate(synth.Profiles[0], 6000, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")

	// Overwrite an existing checkpoint; the destination must always hold
	// a complete document and no temp files may be left behind.
	for _, stage := range []string{pipeline.StagePlace, pipeline.StageLegal} {
		cp := pipeline.Capture(pipeline.StagePlace, d)
		cp.Stage = stage
		if err := cp.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := pipeline.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Stage != cp.Stage {
			t.Fatalf("read back stage %q, want %q", loaded.Stage, cp.Stage)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "cp.json" {
			t.Errorf("leftover file %q after atomic saves", e.Name())
		}
	}
}

func TestSaveRejectsInvalidCheckpoint(t *testing.T) {
	cp := &pipeline.Checkpoint{Format: pipeline.CheckpointFormat, Stage: "place",
		X: []float64{1}, Y: []float64{}, PadW: []float64{1}}
	if err := cp.Save(filepath.Join(t.TempDir(), "cp.json")); err == nil {
		t.Fatal("Save accepted a checkpoint with ragged slices")
	}
}

// TestLoadCheckpointIgnoresLegacyGridLevel: a v1 document that carries the
// retired "grid_level" key still loads, validates and applies to the same
// positions as the document without it.
func TestLoadCheckpointIgnoresLegacyGridLevel(t *testing.T) {
	dir := t.TempDir()
	apply := func(name, content string) *netlist.Design {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := pipeline.LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := &netlist.Design{Name: "two", Region: geom.RectWH(0, 0, 16, 4), RowHeight: 1, SiteWidth: 0.25}
		a := d.AddCell(netlist.Cell{Name: "a", W: 1, H: 1})
		b := d.AddCell(netlist.Cell{Name: "b", W: 1, H: 1})
		n := d.AddNet("n", 1)
		d.Connect(a, n, 0.5, 0.5)
		d.Connect(b, n, 0.5, 0.5)
		if err := cp.Apply(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return d
	}
	want, got := apply("plain.json", plainCheckpoint), apply("legacy.json", legacyCheckpoint)
	if got.Cells[1].X != 7.25 || got.Cells[1].PadW != 0.5 || got.Nets[0].Weight != 2 {
		t.Fatalf("legacy document applied %+v, net weight %v", got.Cells[1], got.Nets[0].Weight)
	}
	for i := range want.Cells {
		w, g := want.Cells[i], got.Cells[i]
		if w.X != g.X || w.Y != g.Y || w.PadW != g.PadW {
			t.Errorf("cell %d: legacy (%v,%v,%v) != plain (%v,%v,%v)", i, g.X, g.Y, g.PadW, w.X, w.Y, w.PadW)
		}
	}
}

// FuzzLoadCheckpoint: whatever bytes are on disk, LoadCheckpoint returns an
// error or a checkpoint that passes Validate — never a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(plainCheckpoint))
	f.Add([]byte(legacyCheckpoint))
	for _, tc := range badCheckpoints {
		f.Add([]byte(tc.content))
	}
	// One file per process, overwritten by each input: inputs run one at a
	// time within a process, and a directory per input would dominate.
	path := filepath.Join(f.TempDir(), "cp.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := pipeline.LoadCheckpoint(path)
		if err != nil {
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("LoadCheckpoint returned an invalid checkpoint: %v", err)
		}
	})
}
