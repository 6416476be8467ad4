package telemetry

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the HTTP listener started by ServeDebug. It serves
//
//	/debug/vars    — expvar JSON, including the published registry
//	/debug/pprof/  — the standard pprof index (profile, heap, trace, …)
//
// so long campaigns can be profiled and watched without stopping them.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug publishes reg under the expvar name "trident" and serves
// expvar + pprof on addr (e.g. "localhost:6060"; ":0" picks a free
// port — read it back from Addr). The server runs until Shutdown.
//
// The handlers are mounted on a private mux, not http.DefaultServeMux,
// so importing this package never changes the default mux's routes.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	if reg != nil {
		reg.PublishExpvar("trident")
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "trident debug server\n\n/debug/vars\n/debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listener: %w", err)
	}
	ds := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() {
		// Serve returns ErrServerClosed on Shutdown; other errors mean the
		// debug side-car died, which must not take the campaign with it.
		_ = ds.srv.Serve(ln)
	}()
	return ds, nil
}

// Addr returns the listener's address (useful with ":0"). Safe on a
// nil receiver, like the rest of the package.
func (s *DebugServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server gracefully: the listener closes immediately
// (no new scrapes), and in-flight requests — a pprof profile mid-write,
// a /debug/vars scrape — get up to timeout to finish before the
// remaining connections are cut. It never truncates a response
// mid-body unless the deadline expires, and either way the
// listener is released, never leaked. Safe on a nil receiver (no-op).
func (s *DebugServer) Shutdown(timeout time.Duration) error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	// Serve may not have registered the listener with srv yet, in which
	// case srv.Shutdown would leave it to close asynchronously.
	defer s.ln.Close()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Handlers outlived the deadline: fall back to a hard close so
		// the listener and connections are released regardless.
		s.srv.Close()
		return err
	}
	return nil
}
