// Interpreter telemetry. All instrumentation sits at run and snapshot
// boundaries — never on the per-instruction dispatch path — so enabling
// metrics costs a handful of atomic updates per execution, and a nil
// registry costs a single pointer check. The metric names recorded here
// are documented in OBSERVABILITY.md.

package interp

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"trident/internal/telemetry"
)

// runMetrics is the per-run metric set, resolved once per registry so
// that a run touches only atomics, never the registry's name map:
//
//	interp.runs                 counter: executions completed (Run or Resume)
//	interp.instrs               counter: dynamic instructions actually interpreted
//	                            (for resumed runs, the post-snapshot suffix only)
//	interp.run_us               histogram: wall-clock execution time
//	interp.outcome.<name>       counter: ok / crash / hang / detected
//	interp.cancelled            counter: runs stopped by context cancellation
//	interp.internal_errors      counter: runs failed by engine bugs (InternalError)
//	interp.errors               counter: runs failed by any other engine error
//	interp.snapshot.resumes     counter: executions rebuilt from a snapshot
//	interp.snapshot.restore_us  histogram: snapshot-to-machine rebuild time
//	interp.pool.frame_hits      counter: call frames served from the frame pool
//	interp.pool.frame_misses    counter: call frames freshly allocated
//	interp.join.probes          counter: rejoin probes
//	interp.join.compares        counter: full state compares those probes ran
type runMetrics struct {
	reg *telemetry.Registry

	runs, instrs             *telemetry.Counter
	runUS                    *telemetry.Histogram
	outcome                  [OutcomeDetected + 1]*telemetry.Counter
	cancelled, internalErrs  *telemetry.Counter
	errs                     *telemetry.Counter
	resumes                  *telemetry.Counter
	restoreUS                *telemetry.Histogram
	frameHits, frameMisses   *telemetry.Counter
	joinProbes, joinCompares *telemetry.Counter
}

// lastMetrics holds the set resolved for the registry metricsFor saw
// last. A process records into one registry, so it almost always hits.
var lastMetrics atomic.Pointer[runMetrics]

// metricsFor returns reg's per-run metric set, or nil when telemetry is
// disabled.
func metricsFor(reg *telemetry.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	if m := lastMetrics.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &runMetrics{
		reg:          reg,
		runs:         reg.Counter("interp.runs"),
		instrs:       reg.Counter("interp.instrs"),
		runUS:        reg.Histogram("interp.run_us"),
		cancelled:    reg.Counter("interp.cancelled"),
		internalErrs: reg.Counter("interp.internal_errors"),
		errs:         reg.Counter("interp.errors"),
		resumes:      reg.Counter("interp.snapshot.resumes"),
		restoreUS:    reg.Histogram("interp.snapshot.restore_us"),
		frameHits:    reg.Counter("interp.pool.frame_hits"),
		frameMisses:  reg.Counter("interp.pool.frame_misses"),
		joinProbes:   reg.Counter("interp.join.probes"),
		joinCompares: reg.Counter("interp.join.compares"),
	}
	for o := range m.outcome {
		m.outcome[o] = reg.Counter("interp.outcome." + Outcome(o).String())
	}
	lastMetrics.Store(m)
	return m
}

// recordRun records one completed (or failed) execution. startInstrs is
// the dynamic-instruction count the execution began at (a snapshot's
// position for Resume, 0 for Run), so interp.instrs counts work
// performed, not work replayed for free.
func (m *runMetrics) recordRun(start time.Time, startInstrs uint64, ctx *Context, res *Result, err error) {
	if m == nil {
		return
	}
	m.runs.Inc()
	m.instrs.Add(ctx.DynCount - startInstrs)
	m.runUS.Since(start)
	switch {
	case res != nil:
		m.outcome[res.Outcome].Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.cancelled.Inc()
	default:
		var ie *InternalError
		if errors.As(err, &ie) {
			m.internalErrs.Inc()
		} else {
			m.errs.Inc()
		}
	}
}

// recordResume records one snapshot-state rebuild (memory clone + frame
// copies) — the fixed per-trial cost of snapshot replay, recorded
// separately from the execution itself.
func (m *runMetrics) recordResume(start time.Time) {
	if m == nil {
		return
	}
	m.resumes.Inc()
	m.restoreUS.Since(start)
}

// metricsStart returns the timing origin for recordRun: the zero time
// when metrics are disabled (time.Now is ~20ns, but the point is that a
// disabled registry costs exactly one branch).
func metricsStart(reg *telemetry.Registry) time.Time {
	if reg == nil {
		return time.Time{}
	}
	return time.Now()
}
