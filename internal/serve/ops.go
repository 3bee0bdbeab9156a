package serve

import (
	"net/http"
	"time"

	"puffer/internal/obs"
)

// handleReady is readiness, distinct from /healthz liveness: a draining,
// queue-saturated or worker-less daemon (a coordinator whose fleet is
// empty would only queue) is alive but should stop receiving traffic, so
// it answers 503 here while /healthz stays 200. The body carries the live
// SLO evaluation so a probe failure is diagnosable from the probe itself.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.Draining() {
		reasons = append(reasons, "draining")
	}
	if s.backend.Slots() == 0 {
		reasons = append(reasons, "no_workers")
	}
	if s.queue.Len() >= s.queue.Cap() {
		reasons = append(reasons, "queue saturated")
	}
	slos := s.slo.Eval()
	if !s.slo.Healthy() {
		reasons = append(reasons, "slo burning")
	}
	status := http.StatusOK
	if len(reasons) > 0 {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, map[string]any{
		"ready":   len(reasons) == 0,
		"reasons": reasons,
		"slo":     slos,
	})
}

// histogramSummary is the operator-facing digest of one latency histogram.
type histogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

func summarize(snap obs.HistogramSnapshot) histogramSummary {
	return histogramSummary{
		Count: snap.Count,
		Mean:  snap.Mean(),
		P50:   snap.Quantile(0.50),
		P95:   snap.Quantile(0.95),
		P99:   snap.Quantile(0.99),
	}
}

// handleOps is the one-call operational picture `pufferctl top` renders:
// lifecycle, queue pressure, counters, latency digests, the SLO statuses,
// and — on a coordinator — role, node table and cache size.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	hists := make(map[string]histogramSummary, len(snap.Histograms))
	for name, hs := range snap.Histograms {
		hists[name] = summarize(hs)
	}
	sessions := s.liveSessions()
	warm := 0
	for _, rt := range sessions {
		if rt.warm() != nil {
			warm++
		}
	}
	doc := map[string]any{
		"status":         s.status(),
		"uptime_seconds": time.Since(s.startedAt).Round(time.Second).Seconds(),
		"queue_depth":    s.queue.Len(),
		"queue_cap":      s.queue.Cap(),
		"workers":        s.backend.Slots(),
		"active_jobs":    s.activeCount(),
		"sessions":       map[string]int{"tracked": len(sessions), "warm": warm},
		"counters":       snap.Counters,
		"gauges":         snap.Gauges,
		"histograms":     hists,
		"slo":            s.slo.Eval(),
		"slo_healthy":    s.slo.Healthy(),
	}
	if s.fleet != nil {
		for k, v := range s.fleet.Ops(true) {
			doc[k] = v
		}
	}
	WriteJSON(w, http.StatusOK, doc)
}
