package padding

import (
	"encoding/json"
	"testing"
)

func TestDecodeStrategy(t *testing.T) {
	def := DefaultStrategy()
	s, err := DecodeStrategy([]byte(`{"Tau": 0.3, "Cong": {"PinPenalty": 0.2}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := def
	want.Tau = 0.3
	want.Cong.PinPenalty = 0.2
	if s != want {
		t.Errorf("partial document:\n got %+v\nwant %+v", s, want)
	}

	full, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := DecodeStrategy(full); err != nil || s != want {
		t.Errorf("round trip: %+v, %v", s, err)
	}

	// The retired estimator knobs decode as no-ops.
	for _, old := range []string{
		`{"Cong": {"RebuildEvery": 4}}`,
		`{"Cong": {"CongestThreshold": 0}}`,
		`{"Feat": {"ZSamples": 4}}`,
	} {
		if s, err := DecodeStrategy([]byte(old)); err != nil || s != def {
			t.Errorf("retired keys %s: %+v, %v", old, s, err)
		}
	}
	old := `{"Tau": 0.3, "Cong": {"CongestThreshold": 0, "PinPenalty": 0.2}, "Feat": {"ZSamples": 4}}`
	if s, err := DecodeStrategy([]byte(old)); err != nil || s != want {
		t.Errorf("retired keys beside live ones: %+v, %v", s, err)
	}

	for _, bad := range []string{
		`{"tua": 0.3}`,
		`{"Cong": {"PinPenalti": 0.2}}`,
		`{"Feat": {"RebuildEvery": 4}}`,
		`{"Cong": {"ZSamples": 4}}`,
		`{"Tau": 0.3} {"Tau": 0.4}`,
		`{"Tau": "high"}`,
		`{nope`,
		``,
	} {
		if s, err := DecodeStrategy([]byte(bad)); err == nil {
			t.Errorf("%q decoded as %+v", bad, s)
		}
	}
}
