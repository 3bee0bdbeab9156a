package serve

import (
	"log/slog"
	"net/http"
	"strings"
	"time"

	"puffer/internal/obs"
)

// statusWriter captures the response status for the request log while
// forwarding Flush, which the SSE endpoints require.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// withTelemetry wraps the daemon mux: every request is timed into the
// serve.http_request_seconds histogram and logged with its trace context.
// An incoming W3C traceparent header becomes log correlation labels here;
// job submissions additionally persist it so the worker's tracer joins the
// caller's trace (see runJob).
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		if tc, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); err == nil {
			ctx = obs.ContextWithLabels(ctx,
				slog.String("trace_id", tc.TraceID.String()),
				slog.String("span_id", tc.SpanID.String()))
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		wall := time.Since(start)
		s.hHTTP.Observe(wall.Seconds())
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		// Probes, scrapes and fleet heartbeats log at debug so an -v daemon
		// log stays about the API; everything else is one info line per
		// request.
		level := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" || r.URL.Path == "/metrics" ||
			r.URL.Path == "/api/v1/nodes" || strings.HasPrefix(r.URL.Path, "/debug/") {
			level = slog.LevelDebug
		}
		s.log.LogAttrs(ctx, level, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("wall", wall.Round(time.Microsecond)))
	})
}
