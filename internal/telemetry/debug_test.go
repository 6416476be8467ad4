package telemetry

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDebugServerShutdownGraceful: Shutdown must let an in-flight
// request complete, then release the listener so the port is reusable.
func TestDebugServerShutdownGraceful(t *testing.T) {
	// nil registry: expvar publication is TestServeDebug's concern (the
	// expvar name is claimed process-wide by the first registry).
	ds, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) == 0 {
		t.Fatalf("reading /debug/vars: %v (%d bytes)", err, len(body))
	}

	if err := ds.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener must be released: binding the same address succeeds.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener leaked after Shutdown: %v", err)
	}
	ln.Close()
	// And new requests must fail.
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Fatal("request succeeded after Shutdown")
	}
}

// TestDebugServerShutdownDeadline: a handler outliving the deadline is
// cut off, but the listener is still released — never leaked.
func TestDebugServerShutdownDeadline(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()
	// Hold a connection open with a slow pprof trace (seconds=5).
	started := make(chan struct{})
	go func() {
		close(started)
		resp, err := http.Get("http://" + addr + "/debug/pprof/trace?seconds=5")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	time.Sleep(100 * time.Millisecond)
	if err := ds.Shutdown(200 * time.Millisecond); err == nil {
		t.Log("shutdown completed inside deadline (slow handler finished early)")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener leaked after deadline shutdown: %v", err)
	}
	ln.Close()
}

// TestDebugServerNilSafe: a nil *DebugServer is inert, matching the
// package's nil-receiver convention.
func TestDebugServerNilSafe(t *testing.T) {
	var ds *DebugServer
	if got := ds.Addr(); got != "" {
		t.Errorf("nil Addr() = %q", got)
	}
	if err := ds.Shutdown(time.Second); err != nil {
		t.Errorf("nil Shutdown() = %v", err)
	}
}

// TestDebugServerShutdownBeforeServe: Shutdown releases the listener
// before it returns even when the serving goroutine has not started yet
// — a command that fails right after opening its sinks reuses the port.
func TestDebugServerShutdownBeforeServe(t *testing.T) {
	for i := 0; i < 50; i++ {
		ds, err := ServeDebug("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		addr := ds.Addr()
		ds.Shutdown(time.Second)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("round %d: listener still bound after Shutdown: %v", i, err)
		}
		ln.Close()
	}
}
