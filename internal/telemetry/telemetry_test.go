package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent locks in loss-free concurrent increments; run
// under -race by make check.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("test.hits")
			for j := 0; j < perG; j++ {
				c.Inc()
			}
			reg.Counter("test.batch").Add(3)
		}()
	}
	wg.Wait()
	if got := reg.Counter("test.hits").Load(); got != goroutines*perG {
		t.Errorf("hits = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Counter("test.batch").Load(); got != goroutines*3 {
		t.Errorf("batch = %d, want %d", got, goroutines*3)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test.inflight")
	g.Add(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
	g.Set(-7)
	if got := g.Load(); got != -7 {
		t.Errorf("gauge = %d, want -7", got)
	}
}

func TestRegistryGetOrCreateReturnsSameMetric(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter did not return the same instance")
	}
	if reg.Gauge("a") != reg.Gauge("a") {
		t.Error("Gauge did not return the same instance")
	}
	if reg.Histogram("a") != reg.Histogram("a") {
		t.Error("Histogram did not return the same instance")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c.one").Add(42)
	reg.Gauge("g.one").Set(-3)
	reg.Histogram("h.one").Observe(100)
	reg.Histogram("h.one").Observe(3000)

	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if snap.Counters["c.one"] != 42 {
		t.Errorf("counter c.one = %d, want 42", snap.Counters["c.one"])
	}
	if snap.Gauges["g.one"] != -3 {
		t.Errorf("gauge g.one = %d, want -3", snap.Gauges["g.one"])
	}
	h := snap.Histograms["h.one"]
	if h.Count != 2 || h.Sum != 3100 || h.Min != 100 || h.Max != 3000 {
		t.Errorf("histogram = %+v", h)
	}
	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n != 3 {
		t.Errorf("snapshot holds %d metrics, want 3: %+v", n, snap)
	}
}

// TestWriteFile: the -metrics-out writer leaves a decodable snapshot at
// the path, and reports a path it cannot create.
func TestWriteFile(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c.one").Add(7)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := reg.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if snap.Counters["c.one"] != 7 {
		t.Errorf("counter c.one = %d, want 7", snap.Counters["c.one"])
	}
	if err := reg.WriteFile(filepath.Join(t.TempDir(), "missing", "m.json")); err == nil {
		t.Error("WriteFile into a missing directory returned nil")
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug.test.counter").Add(7)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Shutdown(time.Second)

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}

	if vars := get("/debug/vars"); !strings.Contains(vars, "debug.test.counter") {
		t.Errorf("/debug/vars does not expose the registry: %.200s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected: %.200s", idx)
	}
}

func TestProgressMeterThrottlesAndFinishes(t *testing.T) {
	var buf syncBuffer
	m := NewProgressMeter(&buf, time.Hour) // only the first Update passes the throttle
	renders := 0
	render := func() string { renders++; return fmt.Sprintf("line %d", renders) }
	m.Update(render)
	m.Update(render)
	m.Update(render)
	if renders != 1 {
		t.Errorf("render ran %d times, want 1 (throttled)", renders)
	}
	m.Update(func() string { return "done" }) // throttled, but kept for Final
	m.Final()
	out := buf.String()
	if !strings.Contains(out, "\rline 1") || !strings.Contains(out, "\rdone") {
		t.Errorf("meter output = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Final did not terminate the line: %q", out)
	}
	// "done" is shorter than "line 1": the rewrite must blank the tail.
	if !strings.Contains(out, "\rdone  ") {
		t.Errorf("shorter line not padded to erase the previous one: %q", out)
	}
}

func TestProgressMeterNilAndSilent(t *testing.T) {
	var m *ProgressMeter
	m.Update(func() string { t.Error("nil meter rendered"); return "" })
	m.Done() // must not panic
	m.Final()

	var buf syncBuffer
	m2 := NewProgressMeter(&buf, 0)
	m2.Done()  // never wrote → stays silent
	m2.Final() // never updated → nothing to render
	if buf.String() != "" {
		t.Errorf("silent meter wrote %q", buf.String())
	}
}

func TestFormatETA(t *testing.T) {
	if got := FormatETA(0, 100, time.Second); got != "eta --" {
		t.Errorf("ETA with no progress = %q", got)
	}
	if got := FormatETA(50, 100, 30*time.Second); got != "eta 30s" {
		t.Errorf("ETA at half = %q, want eta 30s", got)
	}
	if got := FormatETA(100, 100, time.Minute); got != "eta 0s" {
		t.Errorf("ETA when done = %q, want eta 0s", got)
	}
}

// syncBuffer is a mutex-guarded strings.Builder, since meters may be
// fed concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
