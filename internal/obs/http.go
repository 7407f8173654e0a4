package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler returns the registry's introspection endpoint:
//
//	GET /metrics       Prometheus text exposition
//	GET /metrics.json  JSON snapshot (counters, gauges, histograms, live)
//	GET /trace         recorded per-session trace rings (JSON)
//	GET /trace?session=N  one session's ring
//	/debug/pprof/...   the standard pprof handlers
//
// The handler is safe for concurrent use with live traffic — every
// export path reads through atomics or short registry locks.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if q := req.URL.Query().Get("session"); q != "" {
			id, err := strconv.ParseUint(q, 10, 32)
			if err != nil {
				http.Error(w, "bad session id", http.StatusBadRequest)
				return
			}
			enc.Encode(r.Tracer().Events(uint32(id)))
			return
		}
		enc.Encode(r.Tracer().Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0" listens).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds addr and serves the registry's Handler on it in a
// background goroutine. The endpoint is opt-in: nothing listens unless a
// caller asks (rstpserve's -metrics-addr flag is the canonical caller).
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
