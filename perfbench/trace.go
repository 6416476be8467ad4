package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// reconcileTol is the stated reconciliation contract: for every traced
// item (one kernel, one kernel×mode or one job), the layer spans directly
// under the item's end-to-end span must cover at least this share of it.
// The uncovered rest is glue in the benchmark's own adapters (building a
// report, decoding JSON).
const reconcileTol = 0.03

// reconcileSlack is the absolute slack added to the tolerance, so items
// of a few milliseconds are not failed by timer granularity.
const reconcileSlack = 2 * time.Millisecond

// span is one timed call at a layer boundary. Spans of one item share
// ID; Parent is the index of the enclosing span, or -1 for an item's
// end-to-end span and for side probes.
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) start(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span opened as h.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name, id string, parent int, f func()) {
	h := t.start(name, id, parent)
	f()
	t.end(h)
}

// snapshot returns a copy of the spans, all of which must be closed.
func (t *tracer) snapshot() ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, s := range out {
		if s.End < 0 {
			return nil, fmt.Errorf("span %s/%s never ended", s.Name, s.ID)
		}
	}
	return out, nil
}

// layerTotals sums span durations by name and by name.id.
type layerTotals struct {
	total  map[string]time.Duration
	byItem map[string]time.Duration
}

func (l layerTotals) ms(name string) float64 { return msOf(l.total[name]) }

func (l layerTotals) itemMS(name, id string) float64 { return msOf(l.byItem[name+"."+id]) }

func totals(spans []span) layerTotals {
	l := layerTotals{total: map[string]time.Duration{}, byItem: map[string]time.Duration{}}
	for _, s := range spans {
		l.total[s.Name] += s.dur()
		l.byItem[s.Name+"."+s.ID] += s.dur()
	}
	return l
}

// reconcile checks that, for every end-to-end item span (a root with
// children), the direct children add up to the item within the stated
// tolerance, and never exceed it. The uncovered part is the item span's
// self time; reconcile returns the largest self-time share seen.
func reconcile(spans []span) (float64, error) {
	childTime := make([]time.Duration, len(spans))
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.dur()
			hasChild[s.Parent] = true
		}
	}
	worst := 0.0
	for i, s := range spans {
		if s.Parent >= 0 || !hasChild[i] {
			continue
		}
		gap := s.dur() - childTime[i]
		share := float64(gap) / float64(s.dur())
		if share > worst {
			worst = share
		}
		if gap < 0 || gap > time.Duration(reconcileTol*float64(s.dur()))+reconcileSlack {
			return worst, fmt.Errorf("item %s/%s: layers cover %v of %v (tolerance %.0f%% + %v)",
				s.Name, s.ID, childTime[i], s.dur(), reconcileTol*100, reconcileSlack)
		}
	}
	return worst, nil
}

// writeSpans writes spans as JSONL, one span per line, in start order
// (the order they were opened), so Parent indexes the file's lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
