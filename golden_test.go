// Golden placements: TestGoldenPlacements pins the final placement of a
// few (profile, scale, seed) triples bit for bit, as a sha256 over the
// float bits of every movable cell's position.
//
// The digests in testdata/golden.json are amd64 facts. On arm64, and on
// other ports with a fused multiply-add instruction, the Go compiler may
// fuse x*y+z into one instruction that rounds once instead of twice (the
// language spec permits it). The same source then computes slightly
// different floats, the placement drifts, and every digest differs.
// Check and regenerate them on amd64.
package puffer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"puffer/internal/netlist"
	"puffer/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

// goldenCase pins the placement of one (profile, scale, seed) triple: the
// sha256 over the float bits of every movable cell's (X, Y) after Run. The
// engine is bit-deterministic, so the comparison is exact — the idiom of
// OpenROAD's pad01.py diffing its DEF against pad01.defok.
type goldenCase struct {
	Name    string `json:"name"`
	Profile string `json:"profile"`
	Scale   int    `json:"scale"`
	Seed    int64  `json:"seed"`
	Fenced  bool   `json:"fenced,omitempty"`
	Digest  string `json:"digest"`
}

var goldenCases = []goldenCase{
	{Name: "fenced", Profile: "OR1200", Scale: 400, Seed: 5, Fenced: true},
	{Name: "congested", Profile: "MEDIA_SUBSYS", Scale: 1500, Seed: 1},
	{Name: "calm", Profile: "CT_TOP", Scale: 1500, Seed: 3},
}

// goldenDesign generates the case's design.
func goldenDesign(t *testing.T, gc goldenCase) *netlist.Design {
	t.Helper()
	p, err := synth.ProfileByName(gc.Profile)
	if err != nil {
		t.Fatal(err)
	}
	d := synth.Generate(p, gc.Scale, gc.Seed)
	if gc.Fenced {
		addQuadrantFence(d)
	}
	return d
}

// placementDigest hashes the movable cells' positions, in cell order.
func placementDigest(d *netlist.Design) string {
	h := sha256.New()
	var buf [16]byte
	for _, ci := range d.MovableIDs() {
		c := &d.Cells[ci]
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(c.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(c.Y))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPlacements runs the full flow on three small designs — one
// fenced, one congested enough that padding is inherited into
// legalization, one calm — at Workers 1 and 3, and compares each final
// placement bit-for-bit against the checked-in digest. `go test -run
// TestGoldenPlacements -update .` regenerates the file.
func TestGoldenPlacements(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var stored []goldenCase
		if err := json.Unmarshal(raw, &stored); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		for _, gc := range stored {
			want[gc.Name] = gc.Digest
		}
	}
	got := make([]goldenCase, len(goldenCases))
	for k, gc := range goldenCases {
		got[k] = gc
		for _, workers := range []int{1, 3} {
			d := goldenDesign(t, gc)
			cfg := quickConfig()
			cfg.Workers = workers
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gc.Name, workers, err)
			}
			if gc.Name == "congested" && res.Legal.PaddingSites == 0 {
				t.Errorf("%s: no padding inherited into legalization", gc.Name)
			}
			digest := placementDigest(d)
			switch {
			case workers == 1:
				got[k].Digest = digest
			case digest != got[k].Digest:
				t.Errorf("%s: workers=%d digest %s, workers=1 digest %s", gc.Name, workers, digest, got[k].Digest)
			}
		}
		if !*updateGolden && got[k].Digest != want[gc.Name] {
			t.Errorf("%s: placement digest %s, golden %s", gc.Name, got[k].Digest, want[gc.Name])
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Println("wrote", goldenPath)
	}
}
