package cas

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestGoldenDigests locks the canonical encodings. These hex values are
// their contract: if any of them changes, a stored digest silently
// changes meaning (or worse, a digest collision across meanings appears). Changing an encoding requires bumping the
// corresponding format version string AND updating these constants in the
// same commit, deliberately.
func TestGoldenDigests(t *testing.T) {
	if d := Sum([]byte("hello")); d != "sha256-2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824" {
		t.Errorf("Sum(hello) = %s", d)
	}

	blob, err := EncodeBookshelf(map[string]string{
		"design.nodes": "NumNodes : 2\n",
		"design.nets":  "NumNets : 1\n",
	})
	if err != nil {
		t.Fatalf("EncodeBookshelf: %v", err)
	}
	wantBlob := `{"format":"puffer/design-blob/v1","files":{"design.nets":"NumNets : 1\n","design.nodes":"NumNodes : 2\n"}}`
	if string(blob) != wantBlob {
		t.Errorf("bookshelf blob encoding changed:\n got %s\nwant %s", blob, wantBlob)
	}
	if d := Sum(blob); d != "sha256-cc2f9b314a8d545d1c189e0775fd070a0a1b410d509776024de246636495d1e9" {
		t.Errorf("bookshelf digest = %s", d)
	}

	d1, err := (Config{Kind: "place", Route: true, Seed: 5}).Digest()
	if err != nil {
		t.Fatalf("config digest: %v", err)
	}
	if d1 != "sha256-4cdc3cef7b3de64afdee7323b9ba18d2e3df758629b2c7bdb32ca74e5d50bff3" {
		t.Errorf("config digest (nil strategy) = %s", d1)
	}

	canon, err := CanonicalStrategy(json.RawMessage(`{}`))
	if err != nil {
		t.Fatalf("canonical strategy: %v", err)
	}
	if d := Sum(canon); d != "sha256-359ab7acd7d5a18c0784ecb064242c08d339a3c832a111bc96a9a070cd43cc5f" {
		t.Errorf("canonical default strategy digest = %s\n(encoding: %s)", d, canon)
	}
	d2, err := (Config{Kind: "place", Route: true, Seed: 5, Strategy: json.RawMessage(`{}`)}).Digest()
	if err != nil {
		t.Fatalf("config digest with strategy: %v", err)
	}
	if d2 != "sha256-6620f6ecc24167586c7428f053419bfedbc4ad8b3181037541642023662cf289" {
		t.Errorf("config digest (empty strategy json) = %s", d2)
	}
}

func TestConfigDigestSensitivity(t *testing.T) {
	base := Config{Kind: "place", MaxIters: 100, Route: true, Seed: 5}
	bd, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	variants := []Config{
		{Kind: "explore", MaxIters: 100, Route: true, Seed: 5},
		{Kind: "place", MaxIters: 101, Route: true, Seed: 5},
		{Kind: "place", MaxIters: 100, Route: false, Seed: 5},
		{Kind: "place", MaxIters: 100, Route: true, Seed: 6},
		{Kind: "place", MaxIters: 100, Route: true, Seed: 5, Budget: 8},
		{Kind: "place", MaxIters: 100, Route: true, Seed: 5, Strategy: json.RawMessage(`{"Mu":1.3}`)},
	}
	for i, v := range variants {
		vd, err := v.Digest()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if vd == bd {
			t.Errorf("variant %d: digest did not change (%+v)", i, v)
		}
	}
}

// TestStrategyCanonicalization: two spellings of the same strategy — and
// any worker-count setting — must share a digest.
func TestStrategyCanonicalization(t *testing.T) {
	a, err := CanonicalStrategy(json.RawMessage(`{"Mu": 1.3, "Tau": 0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalStrategy(json.RawMessage(` {"Tau":0.2,"Mu":1.3} `))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("key order / whitespace perturbed canonical form:\n%s\n%s", a, b)
	}
	c, err := CanonicalStrategy(json.RawMessage(`{"Mu":1.3,"Tau":0.2,"Cong":{"Workers":7},"Feat":{"Workers":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Worker counts do not affect results (bit-determinism), so they must
	// not affect the canonical form either... except Cong.Workers rides in
	// an embedded struct whose siblings are zeroed by the partial decode —
	// assert only that the Workers fields themselves are scrubbed.
	if strings.Contains(string(c), `"Workers":7`) || strings.Contains(string(c), `"Workers":3`) {
		t.Errorf("worker counts leaked into canonical strategy: %s", c)
	}
	// A strategy written before the estimator lost its RebuildEvery,
	// CongestThreshold and ZSamples knobs still decodes
	// (padding.DecodeStrategy, which LoadStrategy and the job spec use
	// too), and the dead keys do not split the cache.
	for _, doc := range []string{
		`{"Mu":1.3,"Tau":0.2,"Cong":{"RebuildEvery":4}}`,
		`{"Mu":1.3,"Tau":0.2,"Cong":{"CongestThreshold":0},"Feat":{"ZSamples":4}}`,
	} {
		old, err := CanonicalStrategy(json.RawMessage(doc))
		if err != nil {
			t.Fatal(err)
		}
		if string(old) != string(a) {
			t.Errorf("retired keys in %s perturbed canonical form:\n%s\n%s", doc, old, a)
		}
	}
	if _, err := CanonicalStrategy(json.RawMessage(`{not json`)); err == nil {
		t.Error("invalid strategy JSON accepted")
	}
	if _, err := CanonicalStrategy(json.RawMessage(`{"tua":0.3}`)); err == nil {
		t.Error("a misspelt key got a digest of the default strategy")
	}
}

func TestBookshelfRoundTrip(t *testing.T) {
	files := map[string]string{"a.nodes": "x", "a.nets": "y", "a.pl": "z"}
	blob, err := EncodeBookshelf(files)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Format string
		Files  map[string]string
	}
	if err := json.Unmarshal(blob, &doc); err != nil || doc.Format != BlobFormat {
		t.Fatalf("blob %s does not decode as %s: %v", blob, BlobFormat, err)
	}
	if got := doc.Files; len(got) != len(files) || got["a.nodes"] != "x" || got["a.nets"] != "y" || got["a.pl"] != "z" {
		t.Errorf("round trip lost data: %v", got)
	}
	if _, err := EncodeBookshelf(nil); err == nil {
		t.Error("empty upload accepted")
	}
}

func TestStorePutDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("design bytes")
	d1, existed, err := s.Put(data)
	if err != nil || existed {
		t.Fatalf("first Put: d=%s existed=%v err=%v", d1, existed, err)
	}
	d2, existed, err := s.Put(data)
	if err != nil || !existed || d2 != d1 {
		t.Fatalf("second Put: d=%s existed=%v err=%v", d2, existed, err)
	}
	if got, err := os.ReadFile(s.BlobPath(d1)); err != nil || string(got) != string(data) || Sum(got) != d1 {
		t.Fatalf("blob on disk: %q err=%v", got, err)
	}
}
