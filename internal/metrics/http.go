package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Admin HTTP surface. One listener exposes:
//
//	/metrics       Prometheus text exposition of a Registry
//	/healthz       JSON health report from a HealthFunc (503 when not OK)
//	/debug/pprof/  the standard Go profiling endpoints
//
// The listener lives entirely off the data path: scrapes read atomic
// instrument values and the health callback, never touching the mesh.

// Health is one health probe result: OK selects the HTTP status (200/503)
// and Detail is rendered as the JSON body.
type Health struct {
	OK     bool `json:"ok"`
	Detail any  `json:"detail,omitempty"`
}

// HealthFunc produces the current health report. It must be safe for
// concurrent use; nil means "always OK, no detail".
type HealthFunc func() Health

// Handler returns the /metrics scrape handler for reg.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = reg.WritePrometheus(w)
	})
}

// healthHandler serves the /healthz probe.
func healthHandler(fn HealthFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := Health{OK: true}
		if fn != nil {
			h = fn()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
}

// AdminMux assembles the admin endpoints over one registry and health
// probe. The pprof handlers are mounted explicitly (not via the package's
// DefaultServeMux side effect) so multiple admin listeners in one process —
// e.g. the tests — stay independent.
func AdminMux(reg *Registry, health HealthFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	mux.Handle("/healthz", healthHandler(health))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is a running admin listener.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartAdmin binds addr (host:port; port 0 picks a free port) and serves
// the admin endpoints in a background goroutine until Close.
func StartAdmin(addr string, reg *Registry, health HealthFunc) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           AdminMux(reg, health),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *AdminServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers. Nil-safe and idempotent.
func (s *AdminServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
