// Package telemetry is the repository's dependency-free observability
// layer: atomic counters and gauges, bucketed latency histograms, a
// JSONL event/span trace sink, a throttled terminal progress meter, and
// an optional HTTP debug server exposing expvar and pprof.
//
// The long-running, failure-prone part of the reproduction is the
// fault-injection campaign engine (thousands of interpreter runs per
// benchmark); telemetry makes those campaigns auditable while they run
// instead of opaque until they finish. The instrumented layers are
// internal/interp (runs, dynamic instructions, snapshot capture/restore
// counts and latencies, trap/hang outcomes), internal/fault (per-trial
// outcome tallies, retries, worker utilization, golden-run vs replay
// split) and internal/experiments (per-benchmark campaign spans); the
// cmd binaries export the data as a live stderr progress line, a
// -metrics-out JSON snapshot, a -trace-out JSONL event log, and a
// -debug-addr HTTP listener. OBSERVABILITY.md documents every metric
// name, its units, and how to read a metrics.json.
//
// Design constraints, in order: (1) zero overhead when disabled — every
// instrumented layer treats a nil *Registry / *Trace as "off" and all
// instrumentation sits at run and trial boundaries, never on the
// interpreter's per-instruction dispatch path; (2) safe under
// concurrency — counters, gauges and histograms are lock-free atomics,
// usable from every campaign worker; (3) standard library only.
//
// Metric names are dotted lowercase paths ("fi.outcome.sdc"); values
// carrying a unit end in an underscore-unit suffix ("_us" =
// microseconds, "_bytes").
package telemetry

import (
	"encoding/json"
	"expvar"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically non-decreasing atomic counter. The zero
// value is ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. in-flight trials). The
// zero value is ready to use; all methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named collection of metrics. Lookups are get-or-create
// and safe for concurrent use; instrumented code typically resolves its
// metrics once per run or campaign, not per operation. A nil *Registry
// is the conventional "telemetry disabled" value — instrumented layers
// must check for nil before resolving metrics (Registry methods
// themselves require a non-nil receiver).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	publishOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the cmd binaries instrument and
// export. Library code never uses it implicitly: internal packages only
// record into the registry handed to them via their Options/Config.
var Default = NewRegistry()

// Counter returns the counter with the given name, creating it at zero
// on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it at zero on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it
// empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, shaped for
// JSON export (-metrics-out) and expvar. Maps are complete copies; the
// snapshot does not change when the registry does.
type Snapshot struct {
	// TakenAt is the capture time.
	TakenAt time.Time `json:"taken_at"`
	// Counters maps counter name to count.
	Counters map[string]uint64 `json:"counters"`
	// Gauges maps gauge name to instantaneous value.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps histogram name to its distribution summary.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current values. Metrics recorded
// concurrently with the capture may or may not be included; totals are
// exact once the instrumented work has completed.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		TakenAt:    time.Now(),
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry's snapshot as indented JSON — the
// -metrics-out format.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the registry's snapshot to path in the WriteJSON
// format, reporting a close error like a write error — the one
// -metrics-out writer every CLI shares.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// publishedVars guards against double expvar.Publish (which panics)
// when several registries — or repeated calls — claim the same name.
var publishedVars sync.Map

// PublishExpvar exposes the registry's live snapshot under the given
// expvar name (served at /debug/vars by ServeDebug). Repeated calls,
// even across registries, are safe: the first registry to claim a name
// wins and later calls are no-ops.
func (r *Registry) PublishExpvar(name string) {
	r.publishOnce.Do(func() {
		if _, claimed := publishedVars.LoadOrStore(name, r); claimed {
			return
		}
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	})
}
