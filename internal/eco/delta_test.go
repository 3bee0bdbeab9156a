package eco

import (
	"math"
	"strings"
	"testing"
)

func TestParseDeltaStrict(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string // substring; empty = must parse
	}{
		{"bare object", `{"moves":[{"cell":0,"x":1,"y":2}]}`, ""},
		{"with format", `{"format":"puffer/delta/v1","weights":[{"net":1,"weight":2}]}`, ""},
		{"empty object", `{}`, ""},
		{"foreign format", `{"format":"puffer/job/v1"}`, "format"},
		{"unknown field", `{"movez":[]}`, "unknown field"},
		{"trailing data", `{} {"moves":[]}`, "trailing"},
		{"not an object", `[1,2,3]`, "decode"},
		{"truncated", `{"moves":[{"cell":`, "decode"},
		{"empty input", ``, "decode"},
	}
	for _, tc := range cases {
		_, err := ParseDelta([]byte(tc.in))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestDeltaValidateHostileValues: Validate rejects bad ids and values, and
// judges geometry at each touched cell's final size: a resize must fit the
// region, a move is checked at the cell's final size, and a fixed cell's
// final outline must stay inside the region. A movable cell resized in
// place may cross the edge (placement pulls it back), so that validates.
func TestDeltaValidateHostileValues(t *testing.T) {
	d := testDesign(2000, 1)
	mov, fixed := d.MovableIDs()[0], -1
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			fixed = i
			break
		}
	}
	// The movable cell sits against the right edge, so growing it by one
	// site about its center crosses the edge by half a site.
	d.Cells[mov].X = d.Region.Hi.X - d.Cells[mov].W
	c, m := d.Cells[mov], d.Cells[fixed]
	edge := d.Region.Hi.X - c.W/2 // its rightmost center at its current width
	bad := []*Delta{
		{Moves: []CellMove{{Cell: -1, X: 1, Y: 1}}},
		{Moves: []CellMove{{Cell: len(d.Cells), X: 1, Y: 1}}},
		{Moves: []CellMove{{Cell: 0, X: math.Inf(1), Y: 1}}},
		{Moves: []CellMove{{Cell: 0, X: d.Region.Hi.X * 100, Y: 1}}},
		{Resizes: []CellResize{{Cell: 0, W: -3}}},
		{Resizes: []CellResize{{Cell: 0}}},
		{Weights: []NetReweight{{Net: -2, Weight: 1}}},
		{Weights: []NetReweight{{Net: 0, Weight: -1}}},
		{Padding: []PadOverride{{Cell: 1 << 40, PadW: 0}}},
		{Padding: []PadOverride{{Cell: 0, PadW: -0.5}}},
		{Resizes: []CellResize{{Cell: mov, W: 2 * d.Region.W()}}},
		{Resizes: []CellResize{{Cell: mov, H: 2 * d.Region.H()}}},
		{Moves: []CellMove{{Cell: mov, X: edge, Y: 5}}, Resizes: []CellResize{{Cell: mov, W: 2 * c.W}}},
		{Resizes: []CellResize{{Cell: fixed, W: d.Region.W()}}},
		{
			Moves:   []CellMove{{Cell: fixed, X: d.Region.Hi.X - m.W/2, Y: 5}},
			Resizes: []CellResize{{Cell: fixed, W: 1.5 * m.W}},
		},
	}
	for i, dl := range bad {
		if err := dl.Validate(d); err == nil {
			t.Errorf("case %d: hostile delta validated", i)
		}
	}
	good := []*Delta{
		{Resizes: []CellResize{{Cell: mov, W: c.W + d.SiteWidth}}},
		{Moves: []CellMove{{Cell: mov, X: edge, Y: 5}}},
		{Resizes: []CellResize{{Cell: fixed, W: m.W / 2}}},
	}
	for i, dl := range good {
		if err := dl.Validate(d); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}

// FuzzParseDelta hammers the strict decoder with hostile documents: it
// must never panic, and any delta it accepts must survive Validate against
// a real design without panicking (Validate may reject it, of course).
func FuzzParseDelta(f *testing.F) {
	f.Add([]byte(`{"moves":[{"cell":0,"x":1,"y":2}]}`))
	f.Add([]byte(`{"format":"puffer/delta/v1","resizes":[{"cell":3,"w":2.5}]}`))
	f.Add([]byte(`{"weights":[{"net":0,"weight":1e308}],"padding":[{"cell":0,"pad_w":0}]}`))
	f.Add([]byte(`{"moves":[{"cell":-1,"x":1e999,"y":-1e999}]}`))
	f.Add([]byte(`{"moves":[{"cell":9007199254740993,"x":0,"y":0}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"moves":`))
	d := testDesign(2000, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		dl, err := ParseDelta(data)
		if err != nil {
			return
		}
		_ = dl.Validate(d)
		_ = dl.Empty()
		_ = dl.Size()
	})
}
