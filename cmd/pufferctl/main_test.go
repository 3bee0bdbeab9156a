package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"puffer"
	"puffer/internal/client"
	"puffer/internal/coord"
	"puffer/internal/padding"
	"puffer/internal/serve"
)

// daemon starts an in-process pufferd core behind an httptest listener.
func daemon(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// runCtl runs one pufferctl command line in-process and returns its stdout.
func runCtl(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("pufferctl %s: %v\n%s%s", strings.Join(args, " "), err, out.String(), errOut.String())
	}
	return out.String()
}

// TestSubmitStrategyWatch drives `pufferctl submit -strategy s.json -watch`
// against an in-process daemon: the job must run to done on the stream,
// and its durable manifest must carry the strategy file's document.
func TestSubmitStrategyWatch(t *testing.T) {
	s, ts := daemon(t)

	want := padding.DefaultStrategy()
	want.Mu *= 1.5
	want.MaxIters = 3
	strat := filepath.Join(t.TempDir(), "s.json")
	if err := puffer.SaveStrategy(strat, want); err != nil {
		t.Fatal(err)
	}

	out := runCtl(t, "-addr", ts.URL, "submit", "-profile", "OR1200", "-scale", "3000", "-iters", "60",
		"-strategy", strat, "-watch")
	for _, line := range []string{"state: done", "stage dp done"} {
		if !strings.Contains(out, line) {
			t.Errorf("watch output lacks %q:\n%s", line, out)
		}
	}
	id := regexp.MustCompile(`(?m)^job (\S+) `).FindStringSubmatch(out)
	if id == nil {
		t.Fatalf("no admission line in:\n%s", out)
	}
	m, err := s.Spool().ReadManifest(id[1])
	if err != nil {
		t.Fatal(err)
	}
	var got padding.Strategy
	if err := json.Unmarshal(m.Spec.Strategy, &got); err != nil {
		t.Fatalf("manifest strategy %q: %v", m.Spec.Strategy, err)
	}
	if got.Mu != want.Mu || got.MaxIters != want.MaxIters {
		t.Errorf("manifest carries Mu=%g MaxIters=%d, want %g and %d", got.Mu, got.MaxIters, want.Mu, want.MaxIters)
	}
}

// TestExploreOut drives `pufferctl explore -out` against an in-process
// coordinator with one worker: the tuned strategy artifact must land in
// the -out file as a loadable strategy.
func TestExploreOut(t *testing.T) {
	w, wts := daemon(t)
	cs, err := coord.New(coord.Config{Config: serve.Config{SpoolDir: t.TempDir()}, Poll: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cs.Start()
	cts := httptest.NewServer(cs.Handler())
	t.Cleanup(cts.Close)
	err = client.New(cts.URL, nil).Announce(context.Background(), coord.NodeManifest{
		Format: coord.NodeManifestFormat, ID: "w1", Addr: wts.URL, Engine: serve.EngineVersion, Stats: w.Stats(),
	})
	if err != nil {
		t.Fatal(err)
	}

	tuned := filepath.Join(t.TempDir(), "tuned.json")
	out := runCtl(t, "-addr", cts.URL, "explore", "-profile", "OR1200", "-scale", "6000", "-iters", "30",
		"-budget", "1", "-out", tuned)
	if !strings.Contains(out, "done: 11 trials") || !strings.Contains(out, "tuned strategy: "+tuned) {
		t.Errorf("explore output:\n%s", out)
	}
	if _, err := puffer.LoadStrategy(tuned); err != nil {
		t.Errorf("-out wrote no loadable strategy: %v", err)
	}
}
