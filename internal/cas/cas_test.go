package cas

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenDigests locks the canonical encodings. These hex values are
// the cache's wire contract: if any of them changes, every deployed
// fleet's result cache silently invalidates (or worse, a digest collision
// across meanings appears). Changing an encoding requires bumping the
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

	if d := ProfileDesignDigest("media_subsys", 3000, 5); d != "sha256-f2b255018ca371cfed4bad9a341d8b785f8464caf277fd2b0eefa28a813760f6" {
		t.Errorf("profile digest = %s", d)
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

func TestDigestValidShort(t *testing.T) {
	d := Sum([]byte("x"))
	if !d.Valid() {
		t.Fatalf("Sum output %q not Valid", d)
	}
	if got := d.Short(); len(got) != 12 || !strings.HasPrefix(string(d), "sha256-"+got) {
		t.Errorf("Short() = %q", got)
	}
	for _, bad := range []Digest{
		"",
		"sha256-",
		"sha256-abc",
		Digest("sha256-" + strings.Repeat("G", 64)),        // non-hex
		Digest("sha256-" + strings.Repeat("A", 64)),        // uppercase hex
		Digest("md5-" + strings.Repeat("a", 64)),           // wrong algo
		Digest("sha256-" + strings.Repeat("a", 63)),        // short
		Digest("sha256-" + strings.Repeat("a", 65)),        // long
		Digest("sha256-" + strings.Repeat("a", 64) + "\n"), // trailing
		Digest("../etc/passwd"),                            // path escape
	} {
		if bad.Valid() {
			t.Errorf("Digest(%q).Valid() = true", bad)
		}
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
	got, err := DecodeBookshelf(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(files) || got["a.nodes"] != "x" || got["a.nets"] != "y" || got["a.pl"] != "z" {
		t.Errorf("round trip lost data: %v", got)
	}
	if _, err := EncodeBookshelf(nil); err == nil {
		t.Error("empty upload accepted")
	}
	if _, err := DecodeBookshelf([]byte(`{"format":"other/v1","files":{"a":"b"}}`)); err == nil {
		t.Error("foreign blob format accepted")
	}
	if _, err := DecodeBookshelf([]byte(`{"format":"puffer/design-blob/v1","files":{}}`)); err == nil {
		t.Error("fileless blob accepted")
	}
}

func mustDigest(t *testing.T, s string) Digest {
	t.Helper()
	d := Sum([]byte(s))
	return d
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
	got, err := s.Blob(d1)
	if err != nil || string(got) != string(data) {
		t.Fatalf("Blob: %q err=%v", got, err)
	}
	// Corrupt the blob on disk: Blob must detect it.
	if err := os.WriteFile(s.BlobPath(d1), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Blob(d1); err == nil {
		t.Error("corrupt blob read back without error")
	}
}

func TestStoreRefsAndGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dFree, _, _ := s.Put([]byte("free"))
	dHeld, _, _ := s.Put([]byte("held"))
	dPinned, _, _ := s.Put([]byte("pinned"))
	if err := s.AddRef(dHeld); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRef(mustDigest(t, "never stored")); err == nil {
		t.Error("AddRef of unknown blob succeeded")
	}
	cfg := Sum([]byte("cfg"))
	if err := s.PutResult(ResultEntry{Design: dPinned, Config: cfg, Engine: "e1", Job: "job-1", HPWL: 42}); err != nil {
		t.Fatal(err)
	}

	if g := s.Garbage(); len(g) != 1 || g[0] != dFree {
		t.Fatalf("Garbage() = %v, want only %s", g, dFree)
	}
	victims, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0] != dFree {
		t.Fatalf("GC() = %v", victims)
	}
	if _, err := os.Stat(s.BlobPath(dFree)); !os.IsNotExist(err) {
		t.Errorf("GCed blob still on disk (err=%v)", err)
	}
	if _, err := os.Stat(s.BlobPath(dHeld)); err != nil {
		t.Errorf("referenced blob deleted: %v", err)
	}
	if _, err := os.Stat(s.BlobPath(dPinned)); err != nil {
		t.Errorf("result-pinned blob deleted: %v", err)
	}

	// Release the held blob; it becomes garbage. Releasing twice (or an
	// unknown digest) is a no-op.
	if err := s.Release(dHeld); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(dFree); err != nil {
		t.Fatal(err)
	}
	if g := s.Garbage(); len(g) != 1 || g[0] != dHeld {
		t.Fatalf("after release Garbage() = %v", g)
	}

	// Dropping the result unpins dPinned.
	if err := s.DropResult(dPinned, cfg, "e1"); err != nil {
		t.Fatal(err)
	}
	if g := s.Garbage(); len(g) != 2 {
		t.Fatalf("after drop Garbage() = %v", g)
	}

	// A reopened store sees the same state (index persisted atomically).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g := s2.Garbage(); len(g) != 2 {
		t.Fatalf("reopened Garbage() = %v", g)
	}
}

func TestStoreResults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	design := Sum([]byte("d"))
	cfg := Sum([]byte("c"))
	if _, ok := s.Result(design, cfg, "e1"); ok {
		t.Fatal("empty store claims a result")
	}
	e := ResultEntry{Design: design, Config: cfg, Engine: "e1", Job: "job-7", ResultDigest: Sum([]byte("r")), HPWL: 3.5}
	if err := s.PutResult(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Result(design, cfg, "e1")
	if !ok || got.Job != "job-7" || got.HPWL != 3.5 || got.CreatedAt.IsZero() {
		t.Fatalf("Result = %+v ok=%v", got, ok)
	}
	// A different engine version misses.
	if _, ok := s.Result(design, cfg, "e2"); ok {
		t.Error("engine version did not partition the cache")
	}
	if err := s.PutResult(ResultEntry{Design: design, Config: cfg, Engine: "", Job: "j"}); err == nil {
		t.Error("entry with empty engine accepted")
	}
	if err := s.PutResult(ResultEntry{Design: "sha256-zz", Config: cfg, Engine: "e1", Job: "j"}); err == nil {
		t.Error("entry with invalid design digest accepted")
	}
}

func TestStoreOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dKept, _, _ := s.Put([]byte("kept"))
	dLost, _, _ := s.Put([]byte("lost"))

	// Simulate a file that appeared outside the index, and an index entry
	// whose file vanished.
	stray := Sum([]byte("stray"))
	if err := os.WriteFile(filepath.Join(dir, "blobs", string(stray)), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.BlobPath(dLost)); err != nil {
		t.Fatal(err)
	}
	// Temp files mid-write are ignored.
	if err := os.WriteFile(filepath.Join(dir, "blobs", ".tmp-123"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	onDisk, missing, err := s.Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 1 || onDisk[0] != stray {
		t.Errorf("onDisk = %v, want [%s]", onDisk, stray)
	}
	if len(missing) != 1 || missing[0] != dLost {
		t.Errorf("missing = %v, want [%s]", missing, dLost)
	}
	_ = dKept
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"format":"puffer/cas-index/v1","blobs":[{"dig`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("truncated index opened without error")
	}
}

func TestParseIndexRejections(t *testing.T) {
	okBlob := string(Sum([]byte("b")))
	okCfg := string(Sum([]byte("c")))
	valid := `{"format":"puffer/cas-index/v1","blobs":[{"digest":"` + okBlob + `","size":1,"refs":0}],` +
		`"results":[{"design":"` + okBlob + `","config":"` + okCfg + `","engine":"e1","job":"j1","created_at":"2026-01-01T00:00:00Z"}]}`
	if _, err := ParseIndex([]byte(valid)); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}

	cases := map[string]string{
		"empty":            "",
		"whitespace":       "  \n ",
		"truncated":        valid[:len(valid)/2],
		"trailing data":    valid + `{"x":1}`,
		"not an object":    `[1,2,3]`,
		"unknown field":    `{"format":"puffer/cas-index/v1","blobs":null,"results":null,"extra":1}`,
		"foreign format":   `{"format":"puffer/spool/v1","blobs":null,"results":null}`,
		"missing format":   `{"blobs":null,"results":null}`,
		"bad blob digest":  `{"format":"puffer/cas-index/v1","blobs":[{"digest":"nope","size":1,"refs":0}],"results":null}`,
		"negative size":    `{"format":"puffer/cas-index/v1","blobs":[{"digest":"` + okBlob + `","size":-1,"refs":0}],"results":null}`,
		"negative refs":    `{"format":"puffer/cas-index/v1","blobs":[{"digest":"` + okBlob + `","size":1,"refs":-2}],"results":null}`,
		"duplicate blob":   `{"format":"puffer/cas-index/v1","blobs":[{"digest":"` + okBlob + `","size":1,"refs":0},{"digest":"` + okBlob + `","size":1,"refs":0}],"results":null}`,
		"bad design":       `{"format":"puffer/cas-index/v1","blobs":null,"results":[{"design":"x","config":"` + okCfg + `","engine":"e","job":"j","created_at":"2026-01-01T00:00:00Z"}]}`,
		"bad config":       `{"format":"puffer/cas-index/v1","blobs":null,"results":[{"design":"` + okBlob + `","config":"x","engine":"e","job":"j","created_at":"2026-01-01T00:00:00Z"}]}`,
		"empty engine":     `{"format":"puffer/cas-index/v1","blobs":null,"results":[{"design":"` + okBlob + `","config":"` + okCfg + `","engine":"","job":"j","created_at":"2026-01-01T00:00:00Z"}]}`,
		"empty job":        `{"format":"puffer/cas-index/v1","blobs":null,"results":[{"design":"` + okBlob + `","config":"` + okCfg + `","engine":"e","job":"","created_at":"2026-01-01T00:00:00Z"}]}`,
		"bad result dig":   `{"format":"puffer/cas-index/v1","blobs":null,"results":[{"design":"` + okBlob + `","config":"` + okCfg + `","engine":"e","job":"j","result_digest":"zz","created_at":"2026-01-01T00:00:00Z"}]}`,
		"duplicate result": `{"format":"puffer/cas-index/v1","blobs":null,"results":[{"design":"` + okBlob + `","config":"` + okCfg + `","engine":"e","job":"j1","created_at":"2026-01-01T00:00:00Z"},{"design":"` + okBlob + `","config":"` + okCfg + `","engine":"e","job":"j2","created_at":"2026-01-01T00:00:00Z"}]}`,
	}
	for name, doc := range cases {
		if _, err := ParseIndex([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzParseCASIndex: ParseIndex must never panic, and anything it accepts
// must be internally consistent (valid digests, no duplicates) and
// re-parseable after a marshal round trip. ParseIndex is pure — there is
// no state to mutate on the rejection path.
func FuzzParseCASIndex(f *testing.F) {
	okBlob := string(Sum([]byte("b")))
	f.Add([]byte(""))
	f.Add([]byte(`{"format":"puffer/cas-index/v1","blobs":null,"results":null}`))
	f.Add([]byte(`{"format":"puffer/cas-index/v1","blobs":[{"digest":"` + okBlob + `","size":3,"refs":1}],"results":null}`))
	f.Add([]byte(`{"format":"other/v1"}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ParseIndex(data)
		if err != nil {
			return
		}
		seen := map[Digest]bool{}
		for _, b := range idx.Blobs {
			if !b.Digest.Valid() || b.Size < 0 || b.Refs < 0 || seen[b.Digest] {
				t.Fatalf("accepted inconsistent blob %+v", b)
			}
			seen[b.Digest] = true
		}
		keys := map[string]bool{}
		for i := range idx.Results {
			e := &idx.Results[i]
			if !e.Design.Valid() || !e.Config.Valid() || e.Engine == "" || e.Job == "" || keys[e.Key()] {
				t.Fatalf("accepted inconsistent result %+v", e)
			}
			keys[e.Key()] = true
		}
		out, err := json.Marshal(idx)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if _, err := ParseIndex(out); err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, out)
		}
	})
}
