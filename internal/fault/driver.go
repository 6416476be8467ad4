// This file is the campaign driver: every statistical campaign — plain,
// pruned, stratified or adaptive; executed live, resumed from a
// checkpoint, or replayed from a log — goes through one sampling
// design. A design holds the drawn slot stream
// (the n sequential draws of the campaign seed), the per-slot influence
// strata, and a list of phases, each a slot range thinned under one
// plan:
//
//	plain       one all-ones phase over [0, n), no classification;
//	stratified  one phase over [0, n) under Options.Stratify;
//	adaptive    a pilot phase over [0, pn) under the pilot plan, then a
//	            main phase over [pn, n) whose plan NeymanPlan derives
//	            from the pilot outcomes.
//
// The driver thins each phase with the random-access slot hash, hands
// the kept specs to a step that executes them (runTrials) or replays
// them from a log (replayLog), and stitches the phases into one result
// weighted at 1/q of each trial's phase plan. Because inclusion is a
// pure function of (seed, slot, rate) and a derived plan is a pure
// function of the pilot outcomes, worker counts, resumes and replays
// all land on the same executed subset and the same plan.

package fault

import (
	"context"
	"encoding/json"
	"fmt"

	"trident/internal/bitlive"
	"trident/internal/hashutil"
)

// mode is a campaign's sampling design family.
type mode uint8

const (
	modePlain mode = iota
	modeStratified
	modeAdaptive
)

// kind names the mode in checkpoint headers.
func (m mode) kind() string {
	switch m {
	case modeStratified:
		return "stratified"
	case modeAdaptive:
		return "adaptive"
	}
	return "random"
}

// mode returns the sampling design Options select: adaptive, stratified
// or plain (New rejects setting both Stratify and Adaptive).
func (inj *Injector) mode() mode {
	switch {
	case inj.opts.Adaptive != nil:
		return modeAdaptive
	case inj.opts.Stratify != nil:
		return modeStratified
	}
	return modePlain
}

// Run selects how Campaign persists one campaign. The zero value runs
// the campaign in memory.
type Run struct {
	// Checkpoint is the JSONL log completed trials are appended to as
	// they finish; an existing log is resumed, its trials replaying
	// instead of executing. "" runs in memory. Cancelling the campaign
	// still flushes completed trials, so a killed campaign loses at most
	// its in-flight trials.
	Checkpoint string
	// Resume refuses to start from scratch: the Checkpoint log must
	// already exist, guarding against a typoed path silently re-running
	// a long campaign.
	Resume bool
}

// phase is one slot range of a design, thinned under one plan.
type phase struct {
	lo, hi int
	plan   bitlive.Plan
	// derived marks a plan NeymanPlan derives from the outcomes of the
	// previous phase once that phase has run.
	derived bool
}

// design is one campaign's sampling design, and the record of one drive
// over it.
type design struct {
	// seed keys the slot-inclusion hash: the campaign seed.
	seed  uint64
	specs []trialSpec
	// inf and strata classify every drawn slot; both are nil for a plain
	// design, which runs every slot at weight 1.
	inf    *bitlive.Influence
	strata []bitlive.Stratum
	phases []phase
	// bits and floor parameterize plan derivation (adaptive only).
	bits  bitlive.StratumStats
	floor float64

	// missing, filled in by drive, counts kept specs that produced no
	// trial (absent records, or cancellation).
	missing int
}

// newDesign draws the n-slot stream of the campaign seed and lays out
// the phases of mode m over it.
func (inj *Injector) newDesign(m mode, n int) (*design, error) {
	d := &design{seed: inj.opts.Seed, specs: inj.sampleRandom(n)}
	switch m {
	case modePlain:
		d.phases = []phase{{hi: n, plan: bitlive.UniformPlan()}}
		return d, nil
	case modeStratified:
		if inj.opts.Stratify == nil {
			return nil, fmt.Errorf("fault: stratified campaign requires Options.Stratify")
		}
		d.phases = []phase{{hi: n, plan: *inj.opts.Stratify}}
	case modeAdaptive:
		if inj.opts.Adaptive == nil {
			return nil, fmt.Errorf("fault: adaptive campaign requires Options.Adaptive")
		}
		cfg := inj.opts.Adaptive.withDefaults()
		pn := pilotLen(n, cfg.PilotFraction)
		d.phases = []phase{{hi: pn, plan: pilotPlan(cfg)}, {lo: pn, hi: n, derived: true}}
		d.floor = cfg.RateFloor
		d.bits = inj.influence.ModuleStats(inj.module)
	}
	d.inf = inj.influence
	d.strata = make([]bitlive.Stratum, n)
	for i, spec := range d.specs {
		d.strata[i] = d.inf.Stratum(spec.instr, spec.bit)
	}
	return d, nil
}

// thin returns the specs of slots [lo, hi) that plan keeps: slot i runs
// when its stratum's rate q is 1 or its inclusion hash falls below q.
// Inclusion is keyed by the absolute slot index, so resumes never shift
// the kept subset.
func (d *design) thin(plan bitlive.Plan, lo, hi int) []trialSpec {
	if d.strata == nil {
		return d.specs[lo:hi]
	}
	var kept []trialSpec
	for i := lo; i < hi; i++ {
		if q := plan.Rate(d.strata[i]); q >= 1 || slotU(d.seed, i) < q {
			kept = append(kept, d.specs[i])
		}
	}
	return kept
}

// evidence tallies one completed phase's per-stratum outcomes for plan
// derivation: drawn slots (before thinning, so the shares estimate the
// stream's stratum shares), executed classified trials and their SDC
// counts. Errored trials carry no program-behavior signal and are
// excluded, exactly as the weighted estimators exclude them.
func (d *design) evidence(ph *phase, trials []Injection) [bitlive.NumStrata]bitlive.StratumPilot {
	var out [bitlive.NumStrata]bitlive.StratumPilot
	for s := 0; s < bitlive.NumStrata; s++ {
		out[s].Bits = d.bits.Bits[s]
	}
	for _, s := range d.strata[ph.lo:ph.hi] {
		out[int(s)].Slots++
	}
	for _, tr := range trials {
		if tr.Outcome == Errored {
			continue
		}
		s := int(d.inf.Stratum(tr.Instr, tr.Bit))
		out[s].Trials++
		if tr.Outcome == SDC {
			out[s].SDC++
		}
	}
	return out
}

// step executes or replays one phase's kept specs, returning their
// trials in order — a prefix when cancelled, a subsequence when log
// records are missing. A nil result aborts the drive with the error.
type step func(kept []trialSpec) (*CampaignResult, error)

// drive runs the design's phases in order and stitches them into one
// weighted result. It stops after the first phase that errors or falls
// short of its kept specs: a later phase's plan may depend on the
// complete outcomes of an earlier one.
func (d *design) drive(run step) (*AdaptiveResult, error) {
	d.missing = 0
	res := &CampaignResult{Trials: []Injection{}}
	sr := &StratifiedResult{CampaignResult: res, SlotN: len(d.specs)}
	ar := &AdaptiveResult{StratifiedResult: sr}
	for _, s := range d.strata {
		sr.SlotCounts[int(s)]++
	}
	pilot := len(d.phases) > 1
	if pilot {
		ar.PilotSlots = d.phases[0].hi
	}
	var prev *phase
	var prevTrials []Injection
	var runErr error
	for i := range d.phases {
		ph := &d.phases[i]
		if ph.derived {
			ev := d.evidence(prev, prevTrials)
			plan, err := bitlive.NeymanPlan(ev, d.floor)
			if err != nil {
				return nil, err
			}
			ph.plan, ar.Pilot = plan, ev
		}
		kept := d.thin(ph.plan, ph.lo, ph.hi)
		got, err := run(kept)
		if got == nil {
			return nil, err
		}
		d.missing += len(kept) - got.N()
		sr.Plan = ph.plan
		ar.add(got, ph.plan, d.inf)
		if i == 0 && pilot {
			ar.PilotExecuted = got.N()
		}
		prev, prevTrials = ph, got.Trials
		if err != nil || got.N() < len(kept) {
			runErr = err
			break
		}
	}
	res.tally()
	return ar, runErr
}

// add appends one phase's trials to the result, weighting each at 1/q
// of its stratum under the phase plan (1 when the design is plain).
func (ar *AdaptiveResult) add(got *CampaignResult, plan bitlive.Plan, inf *bitlive.Influence) {
	off := len(ar.Trials)
	ar.Trials = append(ar.Trials, got.Trials...)
	for _, te := range got.Errs {
		te.Index += off
		ar.Errs = append(ar.Errs, te)
	}
	for _, tr := range got.Trials {
		w := 1.0
		if inf != nil {
			s := inf.Stratum(tr.Instr, tr.Bit)
			ar.Strata = append(ar.Strata, s)
			w = 1 / plan.Rate(s)
		}
		ar.Weights = append(ar.Weights, w)
	}
}

// replayLog rebuilds the trials of specs from log records, in spec
// order, without executing anything. Specs without a record are skipped
// (the caller counts them missing); Errored records come back as
// Errored trials.
func (inj *Injector) replayLog(specs []trialSpec, recs map[TrialKey]TrialRecord) *CampaignResult {
	res := &CampaignResult{}
	for _, spec := range specs {
		rec, ok := recs[spec.key()]
		if !ok {
			continue
		}
		tr, terr := rec.injection(spec)
		tr.Pruned = tr.Outcome == Benign && inj.isPruned(spec)
		if terr != nil {
			terr.Index = len(res.Trials)
			res.Errs = append(res.Errs, *terr)
		}
		res.Trials = append(res.Trials, tr)
	}
	res.tally()
	return res
}

// header is the checkpoint header of an n-slot campaign in mode m — the
// campaign identity a log is validated against before any record
// replays. Prune and Stratify always carry an explicit value ("none"
// when off), so two fresh logs that differ in either setting never
// validate against each other; only logs from older versions (empty
// fields) are grandfathered in. Stratify holds the plan hash of a
// stratified campaign and the configuration hash of an adaptive one,
// whose plan is re-derived rather than persisted.
func (inj *Injector) header(m mode, n int) checkpointMeta {
	meta := checkpointMeta{
		Version:    checkpointVersion,
		Module:     inj.module.Name,
		Kind:       m.kind(),
		Seed:       inj.opts.Seed,
		Space:      inj.total,
		N:          n,
		ModuleHash: hashutil.Hex(inj.moduleHash),
		Prune:      "none",
		Stratify:   "none",
	}
	if h := inj.pruneHash(); h != "" {
		meta.Prune = h
	}
	switch m {
	case modeStratified:
		meta.Stratify = inj.StratifyHash()
	case modeAdaptive:
		meta.Stratify = inj.AdaptiveHash()
	}
	return meta
}

// CheckpointHash returns the content address of the checkpoint header an
// n-slot campaign under Options writes: the FNV-1a hash (hashutil.Hex)
// of its header line. Every field a log is validated against feeds it,
// so it names a finished campaign's log wherever one is stored apart
// from its campaign (the campaign server's result cache).
func (inj *Injector) CheckpointHash(n int) string {
	line, _ := json.Marshal(inj.header(inj.mode(), n))
	return hashutil.Hex(hashutil.Bytes(line))
}

// CampaignRandom performs n statistical injections sampled uniformly over
// the activation space (dynamic register writes), the paper's overall-SDC
// measurement (§V-B1). It always runs the plain design: Options.Stratify
// and Options.Adaptive do not affect it. Cancelling ctx returns the
// completed prefix of the campaign along with ctx.Err().
func (inj *Injector) CampaignRandom(ctx context.Context, n int) (*CampaignResult, error) {
	ar, err := inj.campaign(ctx, n, modePlain, Run{})
	return ar.CampaignResult, err
}

// CampaignStratified performs a stratified campaign over n slots: the
// same n uniform draws CampaignRandom(n) would make, thinned per stratum
// by Options.Stratify, with Horvitz-Thompson reweighting in the result.
// Cancelling ctx returns the completed prefix along with ctx.Err().
func (inj *Injector) CampaignStratified(ctx context.Context, n int) (*StratifiedResult, error) {
	ar, err := inj.campaign(ctx, n, modeStratified, Run{})
	if ar == nil {
		return nil, err
	}
	return ar.StratifiedResult, err
}

// CampaignAdaptive performs a two-phase adaptive campaign over n slots:
// a static-shape pilot over the first pilotLen slots (live strata at
// rate 1, provably-masked slots at the floor), Neyman-rate derivation
// from the pilot's per-stratum tallies, then the main phase over the
// remaining slots thinned under the derived plan. Pilot trials count
// against n and fold into the weighted estimate, so ExecutedN <= n
// always. Cancelling ctx returns the completed prefix along with
// ctx.Err(); cancelled mid-pilot, the result carries the pilot plan.
func (inj *Injector) CampaignAdaptive(ctx context.Context, n int) (*AdaptiveResult, error) {
	return inj.campaign(ctx, n, modeAdaptive, Run{})
}

// Campaign runs an n-slot campaign under the sampling design Options
// select (plain, stratified or adaptive), persisted and resumed as run
// says. The result is exactly what CampaignRandom, CampaignStratified or
// CampaignAdaptive return for the same design. Cancelling ctx returns
// the completed prefix along with ctx.Err().
func (inj *Injector) Campaign(ctx context.Context, n int, run Run) (*AdaptiveResult, error) {
	return inj.campaign(ctx, n, inj.mode(), run)
}

func (inj *Injector) campaign(ctx context.Context, n int, m mode, run Run) (*AdaptiveResult, error) {
	d, err := inj.newDesign(m, n)
	if err != nil {
		return nil, err
	}
	if run.Resume && run.Checkpoint == "" {
		return nil, fmt.Errorf("fault: resume requires a checkpoint path")
	}
	var ck *Checkpoint
	// prog carries OnProgress's Done and Counts across the phases, so an
	// adaptive campaign's counts never restart at the pilot/main boundary.
	var prog Progress
	ar, err := d.drive(func(kept []trialSpec) (*CampaignResult, error) {
		if ck == nil && run.Checkpoint != "" {
			c, err := openCheckpoint(run.Checkpoint, inj.header(m, n), run.Resume)
			if err != nil {
				return nil, err
			}
			ck = c
		}
		return inj.runTrials(ctx, kept, ck, &prog)
	})
	if ck != nil {
		if cerr := ck.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return ar, err
}

// FromCheckpoint reconstructs an n-slot campaign purely by replaying the
// checkpoint log at path under the sampling design Options select — no trial executes. It returns the
// result over the kept specs present in the log, in slot order, and the
// number of kept specs the log is missing. A complete log reproduces
// the live campaign bit for bit; an incomplete one (a degraded job, a
// cancelled run) yields the usable partial result, with Errored records
// kept as Errored trials. Weights and any adaptive plan are recomputed,
// never read from disk: the header's hashes guarantee the log was
// thinned under the same design. An adaptive log whose pilot is
// incomplete cannot yield a plan, so the result stops at the recorded
// pilot trials under the pilot plan, counting only the absent pilot
// records missing.
func (inj *Injector) FromCheckpoint(n int, path string) (*AdaptiveResult, int, error) {
	m := inj.mode()
	recs, err := loadLogFor(path, inj.header(m, n))
	if err != nil {
		return nil, 0, err
	}
	d, err := inj.newDesign(m, n)
	if err != nil {
		return nil, 0, err
	}
	ar, err := d.drive(func(kept []trialSpec) (*CampaignResult, error) {
		return inj.replayLog(kept, recs), nil
	})
	if err != nil {
		return nil, 0, err
	}
	return ar, d.missing, nil
}
