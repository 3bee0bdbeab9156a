package puffer

import (
	"os"
	"path/filepath"
	"testing"

	"puffer/internal/padding"
)

func TestStrategySaveLoadRoundTrip(t *testing.T) {
	s := padding.DefaultStrategy()
	s.Mu = 2.5
	s.Smooth = padding.SmoothSqrt
	s.Cong.ExpandRadius = 6
	s.Weights[0] = 9.5
	path := filepath.Join(t.TempDir(), "strategy.json")
	if err := SaveStrategy(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStrategy(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestLoadStrategyMissingFile(t *testing.T) {
	if _, err := LoadStrategy(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Error("no error for missing file")
	}
}

func TestLoadStrategyPartialFileKeepsDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := os.WriteFile(path, []byte(`{"Mu": 3.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStrategy(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mu != 3.5 {
		t.Errorf("Mu = %v, want 3.5", got.Mu)
	}
	def := padding.DefaultStrategy()
	if got.Zeta != def.Zeta || got.MaxIters != def.MaxIters {
		t.Error("unset fields lost their defaults")
	}
}

func TestLoadStrategyBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte("{nope"), 0o644)
	if _, err := LoadStrategy(path); err == nil {
		t.Error("no error for invalid JSON")
	}
}

// TestLoadStrategyRejectsUnknownKey: a misspelt key is an error, not a
// silent run of the default τ.
func TestLoadStrategyRejectsUnknownKey(t *testing.T) {
	for _, doc := range []string{`{"tua": 0.3}`, `{"Cong": {"PinPenalti": 0.2}}`} {
		path := filepath.Join(t.TempDir(), "typo.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := LoadStrategy(path); err == nil {
			t.Errorf("%s loaded as %+v", doc, s)
		}
	}
}
