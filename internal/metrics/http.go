package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler serving the registries' combined
// Prometheus exposition. Multiple registries concatenate in argument
// order — used by embedded deployments that co-host several node roles in
// one process.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r == nil {
				continue
			}
			if err := r.WritePrometheus(w); err != nil {
				return
			}
		}
	})
}

// Server is a running observability endpoint.
type Server struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
}

// Close shuts the endpoint down immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Serve starts an HTTP server on addr serving h — the observability mux
// internal/cluster builds over a node's instruments. It returns
// immediately; the server runs until Close. An addr that cannot be bound
// returns the listen error — the caller decides whether metrics are
// load-bearing.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}

// MountProfiling mounts the net/http/pprof suite on mux (the -pprof /
// Options.Profiling opt-in; never on by default since profile endpoints
// are a DoS surface).
func MountProfiling(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
