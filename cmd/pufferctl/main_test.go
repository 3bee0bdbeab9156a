package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"puffer"
	"puffer/internal/bookshelf"
	"puffer/internal/padding"
	"puffer/internal/serve"
	"puffer/internal/synth"
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

// TestSubmitExploreJob drives an exploration job through the submit
// flags a fair-share, upload-backed submission uses — `submit -aux
// -kind explore -budget -workers -tenant`, then `wait -poll` and
// `artifact -o` — against an in-process daemon: the job must finish, its
// manifest must carry the flags, and the tuned strategy artifact must
// load.
func TestSubmitExploreJob(t *testing.T) {
	s, ts := daemon(t)
	p, err := synth.ProfileByName("OR1200")
	if err != nil {
		t.Fatal(err)
	}
	aux, err := bookshelf.Write(synth.Generate(p, 6000, 3), t.TempDir(), "or1200")
	if err != nil {
		t.Fatal(err)
	}

	out := runCtl(t, "-addr", ts.URL, "submit", "-aux", aux, "-kind", "explore", "-budget", "1",
		"-iters", "30", "-workers", "1", "-tenant", "alice")
	id := regexp.MustCompile(`(?m)^job (\S+) queued`).FindStringSubmatch(out)
	if id == nil {
		t.Fatalf("no admission line in:\n%s", out)
	}
	runCtl(t, "-addr", ts.URL, "wait", "-poll", "50ms", "-timeout", "5m", id[1])
	m, err := s.Spool().ReadManifest(id[1])
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Kind != serve.KindExplore || m.Spec.Budget != 1 || m.Spec.Workers != 1 || m.Tenant != "alice" ||
		m.Result == nil || m.Result.Trials == 0 {
		t.Errorf("explore job manifest: %+v, result %+v", m, m.Result)
	}

	tuned := filepath.Join(t.TempDir(), "tuned.json")
	runCtl(t, "-addr", ts.URL, "artifact", "-o", tuned, id[1], "strategy.json")
	if _, err := puffer.LoadStrategy(tuned); err != nil {
		t.Errorf("strategy.json artifact is no loadable strategy: %v", err)
	}
}

// TestSessionVerbs drives an ECO session through the job verbs against an
// in-process daemon: `submit -kind session -watch` returns once the
// session opens, `delta` applies a document and `cancel` closes it, and
// `list` shows it canceled.
func TestSessionVerbs(t *testing.T) {
	_, ts := daemon(t)
	out := runCtl(t, "-addr", ts.URL, "submit", "-kind", "session", "-profile", "OR1200", "-scale", "3000", "-watch")
	id := regexp.MustCompile(`(?m)^job (\S+) queued`).FindStringSubmatch(out)
	if id == nil || !strings.Contains(out, "state: open") {
		t.Fatalf("submit -kind session -watch:\n%s", out)
	}
	if got := runCtl(t, "-addr", ts.URL, "wait", "-poll", "50ms", id[1]); got != "open\n" {
		t.Errorf("wait on an open session printed %q", got)
	}
	delta := filepath.Join(t.TempDir(), "delta.json")
	if err := os.WriteFile(delta, []byte(`{"format":"puffer/delta/v1","weights":[{"net":0,"weight":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runCtl(t, "-addr", ts.URL, "delta", id[1], delta); !strings.HasPrefix(got, "delta 1 applied: hpwl=") {
		t.Errorf("delta printed %q", got)
	}
	runCtl(t, "-addr", ts.URL, "cancel", id[1])
	if got := runCtl(t, "-addr", ts.URL, "list"); !regexp.MustCompile(`(?m)^` + id[1] + ` +session +OR1200 +canceled`).MatchString(got) {
		t.Errorf("list after cancel:\n%s", got)
	}
}
