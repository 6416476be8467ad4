// This file wires the campaign server into telemetry, following the
// nil-safe pattern of fault's campaignMetrics: a nil registry yields a
// nil *serverMetrics whose methods all no-op, so the hot paths carry no
// conditionals and tests can run without telemetry.

package server

import (
	"time"

	"trident/internal/telemetry"
)

// serverMetrics holds the server.* instruments. All methods are safe on
// a nil receiver.
type serverMetrics struct {
	submitted *telemetry.Counter // server.jobs.submitted
	rejected  *telemetry.Counter // server.jobs.rejected
	completed *telemetry.Counter // server.jobs.completed
	partial   *telemetry.Counter // server.jobs.partial
	failed    *telemetry.Counter // server.jobs.failed
	cancelled *telemetry.Counter // server.jobs.cancelled
	resumed   *telemetry.Counter // server.jobs.resumed
	running   *telemetry.Gauge   // server.jobs.running
	depth     *telemetry.Gauge   // server.queue.depth

	jobUS *telemetry.Histogram // server.job_us

	httpRequests *telemetry.Counter // server.http.requests
	httpErrors   *telemetry.Counter // server.http.errors

	cacheHits   *telemetry.Counter // cache.hits
	cacheMisses *telemetry.Counter // cache.misses
	cacheTorn   *telemetry.Counter // cache.torn
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		submitted:    reg.Counter("server.jobs.submitted"),
		rejected:     reg.Counter("server.jobs.rejected"),
		completed:    reg.Counter("server.jobs.completed"),
		partial:      reg.Counter("server.jobs.partial"),
		failed:       reg.Counter("server.jobs.failed"),
		cancelled:    reg.Counter("server.jobs.cancelled"),
		resumed:      reg.Counter("server.jobs.resumed"),
		running:      reg.Gauge("server.jobs.running"),
		depth:        reg.Gauge("server.queue.depth"),
		jobUS:        reg.Histogram("server.job_us"),
		httpRequests: reg.Counter("server.http.requests"),
		httpErrors:   reg.Counter("server.http.errors"),
		cacheHits:    reg.Counter("cache.hits"),
		cacheMisses:  reg.Counter("cache.misses"),
		cacheTorn:    reg.Counter("cache.torn"),
	}
}

func (m *serverMetrics) request(errored bool) {
	if m == nil {
		return
	}
	m.httpRequests.Inc()
	if errored {
		m.httpErrors.Inc()
	}
}

func (m *serverMetrics) submit(accepted bool) {
	if m == nil {
		return
	}
	if accepted {
		m.submitted.Inc()
	} else {
		m.rejected.Inc()
	}
}

func (m *serverMetrics) jobStart() {
	if m == nil {
		return
	}
	m.running.Add(1)
}

// jobEnd records a job reaching a terminal state (or being re-queued by
// a drain, in which case state is JobQueued and only the gauge moves).
func (m *serverMetrics) jobEnd(state JobState, start time.Time) {
	if m == nil {
		return
	}
	m.running.Add(-1)
	m.jobUS.Since(start)
	switch state {
	case JobDone:
		m.completed.Inc()
	case JobPartial:
		m.partial.Inc()
	case JobFailed:
		m.failed.Inc()
	case JobCancelled:
		m.cancelled.Inc()
	}
}

func (m *serverMetrics) resumedJob() {
	if m == nil {
		return
	}
	m.resumed.Inc()
}

func (m *serverMetrics) queueDepth(n int) {
	if m == nil {
		return
	}
	m.depth.Set(int64(n))
}

// cacheLookup records one result-cache lookup and the corrupt entries
// it rejected.
func (m *serverMetrics) cacheLookup(hit bool, torn uint64) {
	if m == nil {
		return
	}
	m.cacheTorn.Add(torn)
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
}
