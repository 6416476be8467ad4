// Campaign telemetry: the fault layer's metric set and the campaign
// progress-callback API. All recording happens at trial granularity —
// a fault-injection trial is thousands of interpreted instructions, so
// the few atomic updates per trial are far below measurement noise
// (cmd/fibench -max-overhead enforces ≤3% end-to-end). Metric names are
// documented in OBSERVABILITY.md.

package fault

import (
	"fmt"
	"strings"
	"time"

	"trident/internal/telemetry"
)

// Progress is a point-in-time view of a running campaign, delivered to
// Options.OnProgress after every completed trial (including trials
// replayed from a checkpoint). Done and the outcome counts are
// monotonically non-decreasing across calls — callbacks are invoked
// under the campaign's result lock, in completion order — so a renderer
// can trust each snapshot to supersede the previous one. Trials
// abandoned by cancellation never report.
type Progress struct {
	// Done is the number of trials classified so far.
	Done int
	// Total is the number of trials the campaign will attempt.
	Total int
	// Counts tallies classifications so far, indexed by Outcome
	// (index 0 is unused; Benign..Errored are live).
	Counts [int(Errored) + 1]int
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration
}

// Rate returns the observed fraction of done trials with the given
// outcome, normalized like CampaignResult.Rate: program outcomes over
// classified trials, Errored over all done trials.
func (p Progress) Rate(o Outcome) float64 {
	if p.Done == 0 {
		return 0
	}
	if o == Errored {
		return float64(p.Counts[Errored]) / float64(p.Done)
	}
	classified := p.Done - p.Counts[Errored]
	if classified == 0 {
		return 0
	}
	return float64(p.Counts[o]) / float64(classified)
}

// TrialsPerSec returns the observed completion rate.
func (p Progress) TrialsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Done) / p.Elapsed.Seconds()
}

// String renders the one-line form the cmd binaries print live:
//
//	fi 1234/3000 41% | benign 52.1% sdc 18.0% crash 29.9% | 5321 trials/s | eta 20s
//
// Outcomes that have not occurred are omitted; errored trials are shown
// as a count, not a rate, because they carry no program-behavior
// signal.
func (p Progress) String() string {
	var b strings.Builder
	pct := 0.0
	if p.Total > 0 {
		pct = 100 * float64(p.Done) / float64(p.Total)
	}
	fmt.Fprintf(&b, "fi %d/%d %.0f%%", p.Done, p.Total, pct)
	sep := " | "
	for _, o := range AllOutcomes {
		if o == Errored || p.Counts[o] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s%s %.1f%%", sep, o, 100*p.Rate(o))
		sep = " "
	}
	if n := p.Counts[Errored]; n > 0 {
		fmt.Fprintf(&b, "%serr %d", sep, n)
	}
	fmt.Fprintf(&b, " | %.0f trials/s | %s",
		p.TrialsPerSec(), telemetry.FormatETA(p.Done, p.Total, p.Elapsed))
	return b.String()
}

// campaignMetrics is the fault layer's pre-resolved metric set, built
// once per injector so trial workers touch only atomics, never the
// registry's name map. A nil *campaignMetrics (metrics disabled) makes
// every call site a single branch.
type campaignMetrics struct {
	goldenUS   *telemetry.Histogram // golden (fault-free) run duration
	setupUS    *telemetry.Histogram // snapshot-capture pass duration
	campaignUS *telemetry.Histogram // whole-campaign durations
	trialUS    *telemetry.Histogram // per-trial wall time (incl. retries)

	campaigns *telemetry.Counter // campaigns run
	total     *telemetry.Counter // trials classified (executed + replayed)
	executed  *telemetry.Counter // trials actually run by this process
	replayed  *telemetry.Counter // trials satisfied from a checkpoint log
	attempts  *telemetry.Counter // trial attempts (first tries + retries)
	retries   *telemetry.Counter // attempts beyond each trial's first
	pruned    *telemetry.Counter // trials skipped by static bit-liveness pruning

	replaySnap  *telemetry.Counter // trials resumed from a golden snapshot
	replayCold  *telemetry.Counter // trials interpreted from instruction 0
	savedInstrs *telemetry.Counter // dynamic instructions skipped via snapshot resume
	rejoined    *telemetry.Counter // trials stopped on rejoining the golden run
	rejoinSaved *telemetry.Counter // golden-suffix instructions skipped by rejoins

	rejoinShifted *telemetry.Counter // rejoins at a count other than the snapshot's

	busyUS   *telemetry.Counter // summed wall-time spent executing trials
	inflight *telemetry.Gauge   // trials currently executing

	outcome [int(Errored) + 1]*telemetry.Counter
}

// newCampaignMetrics resolves the fault metric set in reg, or returns
// nil when telemetry is disabled.
func newCampaignMetrics(reg *telemetry.Registry) *campaignMetrics {
	if reg == nil {
		return nil
	}
	m := &campaignMetrics{
		goldenUS:      reg.Histogram("fi.golden_us"),
		setupUS:       reg.Histogram("fi.snapshot_setup_us"),
		campaignUS:    reg.Histogram("fi.campaign_us"),
		trialUS:       reg.Histogram("fi.trial_us"),
		campaigns:     reg.Counter("fi.campaigns"),
		total:         reg.Counter("fi.trials.total"),
		executed:      reg.Counter("fi.trials.executed"),
		replayed:      reg.Counter("fi.trials.replayed"),
		attempts:      reg.Counter("fi.trials.attempts"),
		retries:       reg.Counter("fi.trials.retries"),
		pruned:        reg.Counter("fi.trials.pruned"),
		replaySnap:    reg.Counter("fi.replay.snapshot"),
		replayCold:    reg.Counter("fi.replay.cold"),
		savedInstrs:   reg.Counter("fi.replay.saved_instrs"),
		rejoined:      reg.Counter("fi.trials.rejoined"),
		rejoinSaved:   reg.Counter("fi.rejoin.saved_instrs"),
		rejoinShifted: reg.Counter("fi.trials.rejoined_shifted"),
		busyUS:        reg.Counter("fi.workers.busy_us"),
		inflight:      reg.Gauge("fi.workers.inflight"),
	}
	for _, o := range AllOutcomes {
		m.outcome[o] = reg.Counter("fi.outcome." + o.String())
	}
	return m
}

// countTrial records one classified trial. replayed marks trials
// satisfied from a checkpoint log rather than executed.
func (m *campaignMetrics) countTrial(o Outcome, replayed bool) {
	if m == nil {
		return
	}
	m.total.Inc()
	if replayed {
		m.replayed.Inc()
	} else {
		m.executed.Inc()
	}
	m.outcome[o].Inc()
}
