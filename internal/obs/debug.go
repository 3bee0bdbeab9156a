package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the live debug endpoint of a run: net/http/pprof under
// /debug/pprof/, the standard library's expvar (memstats, cmdline) under
// /debug/vars, and the registry in Prometheus text format under /metrics.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// NewDebugMux builds the handler tree without binding a socket, for
// embedding into an existing server.
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

// StartDebug binds addr (e.g. ":6060", or ":0" for an ephemeral port) and
// serves the debug endpoint in a background goroutine until Close.
func StartDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug endpoint: %w", err)
	}
	ds := &DebugServer{
		srv: &http.Server{Handler: NewDebugMux(reg), ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go ds.srv.Serve(ln)
	return ds, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down.
func (d *DebugServer) Close() error { return d.srv.Close() }
