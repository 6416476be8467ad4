package fault

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"trident/internal/ir"
	"trident/internal/stats"
	"trident/internal/telemetry"
)

// rng is the deterministic xorshift64* generator used for target sampling.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x853C49E6748FEA9B
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a uniform pseudo-random value in [0, n). Raw `next() % n`
// is biased for n that do not divide 2^64, so draws landing in the
// truncated final bucket [0, 2^64 mod n) are rejected and redrawn; the
// expected number of redraws is below one for every n.
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		panic(&EngineError{Err: fmt.Errorf("fault: intn(0)")})
	}
	if n&(n-1) == 0 {
		return r.next() & (n - 1)
	}
	min := -n % n // 2^64 mod n
	for {
		if v := r.next(); v >= min {
			return v % n
		}
	}
}

// CampaignResult aggregates a set of injection trials. Campaigns degrade
// gracefully: trials whose engine failed are classified Errored and kept
// (with their errors in Errs), and a cancelled campaign returns the
// completed prefix of its trials instead of nothing.
type CampaignResult struct {
	// Trials are the individual injections, in sampling order.
	Trials []Injection
	// Counts indexes outcome tallies by Outcome, including Errored.
	Counts map[Outcome]int
	// Errs describes every Errored trial, ordered by trial index.
	Errs []TrialError
}

// N returns the number of trials.
func (c *CampaignResult) N() int { return len(c.Trials) }

// PrunedN returns the number of trials classified Benign by static
// bit-liveness pruning instead of execution (0 unless the injector ran
// with Options.PruneBits). Pruned trials are full members of the
// campaign: they are included in N, ClassifiedN, Counts[Benign], and
// every rate and CI.
func (c *CampaignResult) PrunedN() int {
	n := 0
	for _, tr := range c.Trials {
		if tr.Pruned {
			n++
		}
	}
	return n
}

// ClassifiedN returns the number of trials that produced a program-level
// classification (everything except Errored).
func (c *CampaignResult) ClassifiedN() int { return len(c.Trials) - c.Counts[Errored] }

// Rate returns the fraction of trials with the given outcome. Program
// outcomes are normalized over classified trials only, so engine failures
// do not dilute the measured rates; Rate(Errored) is normalized over all
// trials.
func (c *CampaignResult) Rate(o Outcome) float64 {
	if len(c.Trials) == 0 {
		return 0
	}
	if o == Errored {
		return float64(c.Counts[o]) / float64(len(c.Trials))
	}
	n := c.ClassifiedN()
	if n == 0 {
		return 0
	}
	return float64(c.Counts[o]) / float64(n)
}

// SDCProb returns the measured SDC probability (SDC / activated faults).
func (c *CampaignResult) SDCProb() float64 { return c.Rate(SDC) }

// MeanCrashLatency returns the mean dynamic-instruction distance between
// injection and trap over the campaign's crash outcomes (0 if none).
func (c *CampaignResult) MeanCrashLatency() float64 {
	var sum, n float64
	for _, tr := range c.Trials {
		if tr.Outcome == Crash {
			sum += float64(tr.CrashLatency)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// ErrorBar95 returns the half-width of the 95% confidence interval on the
// SDC probability — the error bars the paper reports (±0.07% to ±1.76%
// at 3000 samples). It delegates to stats.ProportionCI95, which uses the
// Wilson score interval: unlike the normal approximation, campaigns that
// measure 0 (or n) SDCs out of n trials still get a positive error bar
// instead of a spurious claim of certainty.
func (c *CampaignResult) ErrorBar95() float64 {
	return stats.ProportionCI95(c.SDCProb(), c.ClassifiedN())
}

// tally recomputes Counts from Trials.
func (c *CampaignResult) tally() {
	c.Counts = make(map[Outcome]int)
	for _, tr := range c.Trials {
		c.Counts[tr.Outcome]++
	}
}

// trialSpec is a pre-sampled injection target; sampling happens
// sequentially for determinism, execution happens in parallel.
type trialSpec struct {
	instr    *ir.Instr
	instance uint64
	bit      int
}

// key returns the spec's durable identity for checkpointing. Instruction
// IDs are function-local, so the function name is part of the key; the
// campaign seed lives in the checkpoint header.
func (s trialSpec) key() TrialKey {
	return TrialKey{Func: s.instr.Block.Fn.Name, Instr: s.instr.ID, Instance: s.instance, Bit: s.bit}
}

// runTrial executes one spec with panic isolation and bounded retry. The
// second return is non-nil when the trial exhausted its attempts and was
// classified Errored; cancelled reports that the campaign context fired
// mid-trial, leaving the trial unclassified.
func (inj *Injector) runTrial(ctx context.Context, spec trialSpec) (tr Injection, terr *TrialError, cancelled bool) {
	if mt := inj.met; mt != nil {
		mt.inflight.Add(1)
		start := time.Now()
		defer func() {
			mt.inflight.Add(-1)
			elapsed := time.Since(start)
			mt.trialUS.ObserveDuration(elapsed)
			mt.busyUS.Add(uint64(elapsed.Microseconds()))
		}()
	}
	tr = Injection{Instr: spec.instr, Instance: spec.instance, Bit: spec.bit}
	// Bit-liveness pruning: a provably-masked bit cannot change any
	// observable, so the trial's outcome is Benign by construction and
	// execution is skipped. The spec keeps its slot in the sampling
	// stream, which is what makes the reweighting exact: tallies and CIs
	// still range over the full activation space.
	if inj.isPruned(spec) {
		tr.Outcome = Benign
		tr.Pruned = true
		if mt := inj.met; mt != nil {
			mt.pruned.Inc()
		}
		return tr, nil, false
	}
	attempts := 1 + inj.opts.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if mt := inj.met; mt != nil {
			mt.attempts.Inc()
			if attempt > 1 {
				mt.retries.Inc()
			}
		}
		detail, err := inj.attemptTrial(ctx, spec, attempt)
		if err == nil {
			tr.Outcome = detail.Outcome
			tr.CrashLatency = detail.CrashLatency
			return tr, nil, false
		}
		if ctx.Err() != nil {
			return Injection{}, nil, true
		}
		lastErr = err
		if !isTransient(err) {
			// Deterministic failures (engine bugs, invalid specs) cannot
			// succeed on retry; fail fast with attempt count = attempt.
			attempts = attempt
			break
		}
	}
	tr.Outcome = Errored
	return tr, &TrialError{
		Instr:    spec.instr,
		Instance: spec.instance,
		Bit:      spec.bit,
		Attempts: attempts,
		Err:      lastErr,
	}, false
}

// attemptTrial performs one attempt of one trial behind a panic barrier:
// a panic anywhere in the trial (engine, hooks, classification) becomes a
// typed *EngineError instead of killing the campaign process.
func (inj *Injector) attemptTrial(ctx context.Context, spec trialSpec, attempt int) (d Detail, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &EngineError{
				Err:       fmt.Errorf("fault: trial panicked: %v", r),
				Recovered: r,
			}
		}
	}()
	if h := inj.opts.TrialHook; h != nil {
		if herr := h(spec.instr, spec.instance, spec.bit, attempt); herr != nil {
			return Detail{}, herr
		}
	}
	return inj.InjectDetail(ctx, spec.instr, spec.instance, spec.bit)
}

// runTrials executes the specs with the configured worker pool.
//
// Robustness contract:
//   - Failed trials never abort the campaign: they are classified Errored
//     and detailed in the result's Errs slice.
//   - Cancelling ctx stops launching new trials and returns the completed
//     prefix of the campaign together with ctx.Err(); results are
//     byte-identical to the same prefix of an uninterrupted run.
//   - When ck is non-nil, completed trials are replayed from the log
//     instead of re-executed, and fresh completions are appended to it.
//
// prog is the progress OnProgress reports: this call adds its specs to
// Total and its completions to Done and Counts, so a campaign that runs
// several phases passes the same prog to each and its counts never
// restart.
func (inj *Injector) runTrials(ctx context.Context, specs []trialSpec, ck *Checkpoint, prog *Progress) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &CampaignResult{Trials: make([]Injection, len(specs))}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []TrialError
	)
	start := time.Now()
	span := inj.opts.Trace.Start("campaign", telemetry.Attrs{
		"module": inj.module.Name, "n": len(specs),
	})
	if mt := inj.met; mt != nil {
		mt.campaigns.Inc()
		defer mt.campaignUS.Since(start)
	}
	// prog aggregates completions under mu, so OnProgress observes
	// monotonically non-decreasing counts in completion order.
	prog.Total += len(specs)
	elapsed := prog.Elapsed
	// observe records one classified trial (executed or replayed from the
	// checkpoint). Callers must hold mu.
	observe := func(tr Injection, terr *TrialError, replayed bool) {
		inj.met.countTrial(tr.Outcome, replayed)
		if terr != nil {
			inj.opts.Trace.Event("trial.errored", telemetry.Attrs{
				"index": terr.Index, "instr": terr.Instr.Pos(),
				"instance": terr.Instance, "bit": terr.Bit,
				"attempts": terr.Attempts, "err": terr.Err.Error(),
			})
		}
		if f := inj.opts.OnProgress; f != nil {
			prog.Done++
			prog.Counts[tr.Outcome]++
			prog.Elapsed = elapsed + time.Since(start)
			f(*prog)
		}
	}
	sem := make(chan struct{}, inj.opts.Workers)
	launched := 0
launch:
	for i, spec := range specs {
		if ck != nil {
			if tr, terr, ok := ck.replay(spec); ok {
				// The Pruned flag is not persisted in checkpoint records;
				// recompute it so resumed campaigns report the same pruned
				// tally as uninterrupted ones. (Cross-prune replay cannot
				// happen: the checkpoint header records the pruning
				// configuration and openCheckpoint refuses a mismatch.)
				tr.Pruned = tr.Outcome == Benign && inj.isPruned(spec)
				res.Trials[i] = tr
				mu.Lock()
				if terr != nil {
					terr.Index = i
					errs = append(errs, *terr)
				}
				observe(tr, terr, true)
				mu.Unlock()
				launched = i + 1
				continue
			}
		}
		select {
		case <-ctx.Done():
			break launch
		case sem <- struct{}{}:
		}
		launched = i + 1
		wg.Add(1)
		go func(i int, spec trialSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			tr, terr, cancelled := inj.runTrial(ctx, spec)
			if cancelled {
				return
			}
			mu.Lock()
			res.Trials[i] = tr
			if terr != nil {
				terr.Index = i
				errs = append(errs, *terr)
			}
			observe(tr, terr, false)
			mu.Unlock()
			if ck != nil {
				ck.record(tr, terr)
			}
		}(i, spec)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Keep exactly the contiguous completed prefix: trials past the
		// cancellation point (or cancelled mid-flight) are unclassified
		// zero values and must not leak into the result.
		n := launched
		for i := 0; i < n; i++ {
			if res.Trials[i].Outcome == 0 {
				n = i
				break
			}
		}
		res.Trials = res.Trials[:n]
		kept := errs[:0]
		for _, te := range errs {
			if te.Index < n {
				kept = append(kept, te)
			}
		}
		errs = kept
		res.Errs = sortTrialErrs(errs)
		res.tally()
		span.EndWith(telemetry.Attrs{"done": res.N(), "errored": len(res.Errs), "cancelled": true})
		return res, err
	}
	res.Errs = sortTrialErrs(errs)
	res.tally()
	span.EndWith(telemetry.Attrs{"done": res.N(), "errored": len(res.Errs)})
	return res, nil
}

// sortTrialErrs orders errors by trial index so error reports are
// deterministic regardless of worker interleaving.
func sortTrialErrs(errs []TrialError) []TrialError {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })
	return errs
}

// sampleRandom draws n uniform specs over the activation space. Sampling
// is sequential and depends only on the seed, so campaigns (and their
// checkpoints) are reproducible across worker counts and restarts.
func (inj *Injector) sampleRandom(n int) []trialSpec {
	r := newRNG(inj.opts.Seed)
	specs := make([]trialSpec, n)
	for i := range specs {
		in, instance := inj.pick(1 + r.intn(inj.total))
		specs[i] = trialSpec{instr: in, instance: instance, bit: randomBit(r, in)}
	}
	return specs
}

// perInstrSeed derives an independent RNG stream for one static target.
// Instruction IDs are function-local, so the function name must be part
// of the mix: the earlier `Seed ^ ID*const` scheme aliased targets with
// equal IDs in different functions onto identical instance/bit
// sequences, and a target with ID 0 onto the campaign-level stream
// itself. FNV-1a over the function name followed by splitmix64-style
// finalization of the ID and seed keeps every target's stream distinct.
func perInstrSeed(seed uint64, target *ir.Instr) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	name := target.Block.Fn.Name
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	h ^= uint64(target.ID)
	h *= fnvPrime
	h ^= seed
	// splitmix64 finalizer: avalanche so that near-identical inputs
	// (adjacent IDs, same seed) give unrelated streams.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// CampaignPerInstr performs n injections into random dynamic instances of
// one static instruction, the paper's per-instruction measurement (§V-B2,
// 100 faults per instruction).
func (inj *Injector) CampaignPerInstr(ctx context.Context, target *ir.Instr, n int) (*CampaignResult, error) {
	execs := inj.execCount[target]
	if execs == 0 || !target.HasResult() {
		return nil, fmt.Errorf("fault: %s is not an injectable target", target.Pos())
	}
	r := newRNG(perInstrSeed(inj.opts.Seed, target))
	specs := make([]trialSpec, n)
	for i := range specs {
		specs[i] = trialSpec{
			instr:    target,
			instance: 1 + r.intn(execs),
			bit:      randomBit(r, target),
		}
	}
	return inj.runTrials(ctx, specs, nil, &Progress{})
}

// PerInstrSDC measures per-instruction SDC probabilities for the given
// targets with n trials each, returning a map target → SDC probability.
func (inj *Injector) PerInstrSDC(ctx context.Context, targets []*ir.Instr, n int) (map[*ir.Instr]float64, error) {
	out := make(map[*ir.Instr]float64, len(targets))
	for _, in := range targets {
		res, err := inj.CampaignPerInstr(ctx, in, n)
		if err != nil {
			return nil, err
		}
		out[in] = res.SDCProb()
	}
	return out, nil
}
