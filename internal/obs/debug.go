package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the debug endpoint's handler tree: net/http/pprof
// under /debug/pprof/, the standard library's expvar (memstats, cmdline)
// under /debug/vars, and the registry in Prometheus text format under
// /metrics. pufferd mounts it into its job API.
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "puffer debug endpoint\n\n/debug/pprof/\n/debug/vars\n/metrics\n")
	})
	return mux
}
