// This file implements compositional campaigns: the whole-program
// injection space is partitioned by function, each function gets an
// independent deterministic sampling stream and a proportional share of
// the trial budget, and each function's outcome profile is stored in a
// content-addressed cache (internal/cache). Re-running after an edit
// re-injects only the functions whose canonical body hash — or whose
// golden-run behavior stamp — changed; everything else is replayed from
// cache, bit for bit (FastFlip-style, PAPERS.md).
//
// Soundness note. A fault injected in function f propagates through the
// *whole* program, so a cached profile for f is only valid while the
// rest of the program still behaves identically. Body hashes alone
// cannot see that, which is why the cache key carries a golden-run
// stamp (output hash, dynamic instruction count, per-function activation
// count): a behavior-changing edit anywhere changes the stamp, every
// lookup misses, and the campaign degrades to a full re-run — correct,
// just not incremental. Behavior-preserving edits (register renames,
// refactors that keep the dynamic trace) keep the stamp and enjoy
// per-function incrementality. The compositional differential suite
// enforces both halves of this contract.

package fault

import (
	"context"
	"fmt"
	"time"

	"trident/internal/bitlive"
	"trident/internal/cache"
	"trident/internal/hashutil"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// ModelVersion names the fault model and its version in cache keys. Bump
// it whenever injection semantics change (sampling, classification, bit
// selection), so old profiles stop matching without any migration.
const ModelVersion = "bitflip/v1"

// funcSection is one function's slice of the activation space.
type funcSection struct {
	fn      *ir.Func
	hash    uint64 // content address of the canonical printed body
	targets []*ir.Instr
	cum     []uint64
	weight  uint64
	byID    map[int]*ir.Instr
}

// sections partitions the injector's targets by function, in module
// order, keeping only functions with a nonzero activation count.
func (inj *Injector) sections() []*funcSection {
	var secs []*funcSection
	for _, fn := range inj.module.Funcs {
		sec := &funcSection{fn: fn, hash: hashutil.Function(fn), byID: make(map[int]*ir.Instr)}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				sec.byID[in.ID] = in
				if n := inj.execCount[in]; n > 0 && in.HasResult() {
					sec.weight += n
					sec.targets = append(sec.targets, in)
					sec.cum = append(sec.cum, sec.weight)
				}
			}
		}
		if sec.weight > 0 {
			secs = append(secs, sec)
		}
	}
	return secs
}

// funcSeed derives the independent sampling stream for one function's
// section from the campaign seed, the function name, and the body hash.
// Including the hash means an edited function draws a fresh stream (its
// cached profile is unusable anyway), while unrelated functions keep
// theirs — which is what makes incremental and from-scratch campaigns
// produce identical trials for unchanged functions.
func funcSeed(seed uint64, name string, bodyHash uint64) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	h ^= bodyHash
	h *= fnvPrime
	h ^= seed
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// apportion splits n trials across weights by largest remainder
// (Hamilton's method): exact proportionality where it divides evenly,
// deterministic earliest-index tie-breaking where it does not, and the
// shares always sum to n.
func apportion(n int, weights []uint64) []int {
	shares := make([]int, len(weights))
	if n <= 0 || len(weights) == 0 {
		return shares
	}
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return shares
	}
	type rem struct {
		idx  int
		frac uint64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		num := uint64(n) * w
		shares[i] = int(num / total)
		rems[i] = rem{idx: i, frac: num % total}
		assigned += shares[i]
	}
	// Hand the leftover trials to the largest fractional remainders;
	// stable selection by (remainder desc, index asc).
	for assigned < n {
		best := -1
		for i := range rems {
			if rems[i].frac == 0 && best != -1 {
				continue
			}
			if best == -1 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		shares[rems[best].idx]++
		rems[best].frac = 0
		assigned++
	}
	return shares
}

// sampleSection draws n specs uniformly over one function's activation
// subspace from its own stream, mirroring sampleRandom's scheme.
func (inj *Injector) sampleSection(sec *funcSection, n int) []trialSpec {
	r := newRNG(funcSeed(inj.opts.Seed, sec.fn.Name, sec.hash))
	specs := make([]trialSpec, n)
	for i := range specs {
		k := 1 + r.intn(sec.weight)
		lo, hi := 0, len(sec.cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if sec.cum[mid] < k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		in := sec.targets[lo]
		prev := uint64(0)
		if lo > 0 {
			prev = sec.cum[lo-1]
		}
		specs[i] = trialSpec{instr: in, instance: k - prev, bit: randomBit(r, in)}
	}
	return specs
}

// funcKey builds the content address of one function's plain campaign
// section. A thinned section's key fills the stratify slot with the
// identity of the design that thinned it (adaptiveKey, seededKey), so
// differently-thinned transcripts never collide.
func (inj *Injector) funcKey(sec *funcSection, n int) cache.FuncKey {
	prune := ""
	if inj.prune != nil {
		prune = hashutil.Hex(inj.prune.FuncHash(sec.fn))
	}
	return cache.FuncKey{
		Kind:       cache.FuncProfileKind,
		Func:       sec.fn.Name,
		BodyHash:   hashutil.Hex(sec.hash),
		Model:      ModelVersion,
		HangFactor: inj.opts.HangFactor,
		Seed:       inj.opts.Seed,
		N:          n,
		Prune:      prune,
		Stamp: cache.Stamp{
			GoldenOutput: hashutil.Hex(hashutil.Output(inj.goldenOutput)),
			GoldenDyn:    inj.goldenDyn,
			Activations:  sec.weight,
		},
	}
}

// adaptiveKey is the stratify slot of a section sampled under the
// adaptive two-phase design: the function's influence classification
// plus the pilot configuration.
func (inj *Injector) adaptiveKey(sec *funcSection) string {
	return adaptiveHash(inj.influence.FuncHash(sec.fn), *inj.opts.Adaptive)
}

// seededKey is the stratify slot of a section whose plan was seeded
// from a cached plain profile: the influence classification and the
// derived plan itself (the seeding evidence is pinned by the rest of the
// key, so the plan is reproducible from the same plain entry).
func (inj *Injector) seededKey(sec *funcSection, plan bitlive.Plan) string {
	return hashutil.Hex(hashutil.String(fmt.Sprintf("seeded|%x|%x",
		inj.influence.FuncHash(sec.fn), plan.Hash())))
}

// FuncCampaign is one function's section of a compositional campaign:
// its share of the trial budget and the per-trial transcript, either
// executed this run (Cached false) or replayed from the profile cache.
type FuncCampaign struct {
	Name     string
	BodyHash uint64
	Weight   uint64
	N        int
	Cached   bool
	Counts   map[Outcome]int
	Records  []cache.TrialRec
	// Errs details Errored trials of a live section (always empty for
	// cached sections — profiles with errored trials are never stored).
	Errs []TrialError
	// Adaptive-campaign bookkeeping, zero for plain sections: Plan is the
	// derived main-phase plan (String form), PilotN counts the pilot
	// trials the transcript holds, and Seeded marks a plan derived from a
	// cached plain profile instead of a pilot phase.
	Plan   string
	PilotN int
	Seeded bool
}

// CompositionalResult is a whole-program campaign stitched from
// per-function sections.
type CompositionalResult struct {
	// Funcs lists the sections in module function order.
	Funcs []FuncCampaign
	// Hits and Misses count cache outcomes over the sections.
	Hits, Misses int
	// PilotExecuted is the total pilot trials executed across all
	// sections this run, and SeededFuncs the sections whose plan was
	// seeded from a cached plain profile (adaptive campaigns only).
	PilotExecuted, SeededFuncs int
	// Composed is the whole-program estimate recomposed from the
	// sections' tallies, weighted by activation counts.
	Composed cache.Composed

	byFunc map[string]*funcSection
}

// SDCProb returns the composed SDC probability.
func (r *CompositionalResult) SDCProb() float64 { return r.Composed.SDC }

// ErrorBar95 returns the half-width of the composed 95% interval.
func (r *CompositionalResult) ErrorBar95() float64 { return r.Composed.ErrorBar95() }

// N returns the total trial count across sections.
func (r *CompositionalResult) N() int {
	n := 0
	for i := range r.Funcs {
		n += len(r.Funcs[i].Records)
	}
	return n
}

// Merged reconstructs a flat CampaignResult from the sections, resolving
// each record's function-local instruction ID against the module. The
// result is ordered by section, then sampling order — the same order a
// from-scratch compositional campaign executes, so two runs can be
// compared trial for trial.
func (r *CompositionalResult) Merged() (*CampaignResult, error) {
	res := &CampaignResult{}
	for i := range r.Funcs {
		fc := &r.Funcs[i]
		sec := r.byFunc[fc.Name]
		if sec == nil {
			return nil, fmt.Errorf("fault: compositional result has unknown function %q", fc.Name)
		}
		for _, rec := range fc.Records {
			in := sec.byID[rec.Instr]
			if in == nil {
				return nil, fmt.Errorf("fault: @%s has no instruction with ID %d", fc.Name, rec.Instr)
			}
			o, ok := outcomeFromName(rec.Outcome)
			if !ok {
				return nil, fmt.Errorf("fault: unknown outcome %q in @%s record", rec.Outcome, fc.Name)
			}
			res.Trials = append(res.Trials, Injection{
				Instr:        in,
				Instance:     rec.Instance,
				Bit:          rec.Bit,
				Outcome:      o,
				CrashLatency: rec.Latency,
			})
		}
		res.Errs = append(res.Errs, fc.Errs...)
	}
	res.tally()
	return res, nil
}

// outcomeCounts converts a section's Outcome tally to the cache's
// string-keyed form.
func outcomeCounts(counts map[Outcome]int) map[string]int {
	out := make(map[string]int, len(counts))
	for o, n := range counts {
		out[o.String()] = n
	}
	return out
}

// validProfile sanity-checks a cached profile against its key before
// trusting it: right trial count, decodable outcomes, no errored trials.
// Anything off is reported and treated as a miss.
func validProfile(key cache.FuncKey, p *cache.FuncProfile) bool {
	if len(p.Trials) != key.N {
		warnf("cache: profile for @%s has %d trials, key says %d (treating as miss)",
			key.Func, len(p.Trials), key.N)
		return false
	}
	total := 0
	for name, n := range p.Counts {
		if _, ok := outcomeFromName(name); !ok {
			warnf("cache: profile for @%s counts unknown outcome %q (treating as miss)", key.Func, name)
			return false
		}
		total += n
	}
	if total != key.N || p.Counts[Errored.String()] != 0 {
		warnf("cache: profile for @%s tallies %d trials (%d errored), key says %d clean (treating as miss)",
			key.Func, total, p.Counts[Errored.String()], key.N)
		return false
	}
	for _, rec := range p.Trials {
		if _, ok := outcomeFromName(rec.Outcome); !ok {
			warnf("cache: profile for @%s has trial with unknown outcome %q (treating as miss)",
				key.Func, rec.Outcome)
			return false
		}
	}
	return true
}

// profileRecs indexes a cached section transcript by trial key, the
// form the log replayer reads. It reports false when a record names an
// unknown outcome.
func profileRecs(fn string, trials []cache.TrialRec) (map[TrialKey]trialRecord, bool) {
	recs := make(map[TrialKey]trialRecord, len(trials))
	for _, t := range trials {
		if _, ok := outcomeFromName(t.Outcome); !ok {
			return nil, false
		}
		rec := trialRecord{Func: fn, Instr: t.Instr, Instance: t.Instance, Bit: t.Bit, Outcome: t.Outcome, Latency: t.Latency}
		recs[rec.key()] = rec
	}
	return recs, true
}

// trialRecs converts executed trials to their cache-record form.
func trialRecs(trials []Injection) []cache.TrialRec {
	recs := make([]cache.TrialRec, len(trials))
	for i, tr := range trials {
		recs[i] = cache.TrialRec{
			Instr:    tr.Instr.ID,
			Instance: tr.Instance,
			Bit:      tr.Bit,
			Outcome:  tr.Outcome.String(),
			Latency:  tr.CrashLatency,
		}
	}
	return recs
}

// weightedFuncTally folds one adaptive section's executed transcript
// into its composition contribution. slots is the section's drawn slot
// budget; partial (a cancelled section) falls back to the executed
// prefix's weight mass — the drawn slots that prefix stands for — as the
// denominator, since the untested remainder of the budget carries no
// estimate.
func weightedFuncTally(fc *FuncCampaign, weights []float64, slots int, partial bool) cache.WeightedFuncTally {
	t := cache.WeightedFuncTally{
		Func:   fc.Name,
		Weight: fc.Weight,
		Counts: outcomeCounts(fc.Counts),
		Sums:   make(map[string]float64),
	}
	erroredW := 0.0
	errName := Errored.String()
	for i, rec := range fc.Records {
		w := weights[i]
		if rec.Outcome == errName {
			erroredW += w
			continue
		}
		t.Sums[rec.Outcome] += w
		t.SDC.Add(w, rec.Outcome == cache.SDCName)
	}
	denom := float64(slots)
	if partial {
		denom = 0
		for _, w := range weights {
			denom += w
		}
	}
	if t.Slots = denom - erroredW; t.Slots < 0 {
		t.Slots = 0
	}
	return t
}

// CampaignCompositional performs n statistical injections apportioned
// across functions proportionally to their activation counts, each
// function's section drawn from its own funcSeed stream and sampled
// under the design Options select, consulting store (may be nil: run
// everything) for cached per-function profiles:
//
//   - plain: a section whose key hits replays from its cached profile
//     without executing a trial; a miss runs live.
//   - adaptive: each section derives its own Neyman plan from the
//     cheapest sufficient evidence — a cached plain profile of the same
//     section (the plan is seeded from its per-stratum tallies and the
//     thinned transcript replays from it: no pilot), a cached adaptive
//     profile (replayed, the plan re-derived from its pilot records), or
//     a live pilot + main run. Every executed trial weighs 1/q of the
//     plan its phase ran under, composed by cache.ComposeWeighted; the
//     thinning hash is independent of outcomes, so the estimate stays
//     unbiased even when the plan was derived from the very outcomes
//     being thinned (ANALYSIS.md, "Adaptive (Neyman) allocation").
//
// Live sections that finish clean (complete, no Errored trials) are
// stored for the next campaign. Cancelling ctx returns the sections
// completed so far plus ctx.Err(); partially-executed sections are
// never cached.
func (inj *Injector) CampaignCompositional(ctx context.Context, n int, store *cache.Store) (*CompositionalResult, error) {
	m := inj.mode()
	if m == modeStratified {
		// Per-function statically stratified sections would need their
		// own weighted profiles; refusing is more honest than silently
		// running the plan-less campaign.
		return nil, fmt.Errorf("fault: stratified compositional campaigns are not supported; drop Options.Stratify or run CampaignStratified")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	secs := inj.sections()
	weights := make([]uint64, len(secs))
	for i, sec := range secs {
		weights[i] = sec.weight
	}
	shares := apportion(n, weights)

	res := &CompositionalResult{byFunc: make(map[string]*funcSection, len(secs))}
	for _, sec := range secs {
		res.byFunc[sec.fn.Name] = sec
	}
	span := inj.opts.Trace.Start("campaign.compositional", telemetry.Attrs{
		"module": inj.module.Name, "n": n, "funcs": len(secs),
	})

	var tallies []cache.FuncTally
	var wtallies []cache.WeightedFuncTally
	var runErr error
	for i, sec := range secs {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		fc, trialWeights, partial, err := inj.section(ctx, m, sec, shares[i], store, res)
		if fc == nil {
			return nil, err
		}
		res.Funcs = append(res.Funcs, *fc)
		if m == modeAdaptive {
			wtallies = append(wtallies, weightedFuncTally(fc, trialWeights, fc.N, partial))
		} else {
			tallies = append(tallies, cache.FuncTally{
				Func: fc.Name, Weight: fc.Weight, Counts: outcomeCounts(fc.Counts),
			})
		}
		if err != nil {
			runErr = err
			break
		}
	}

	composeStart := time.Now()
	if m == modeAdaptive {
		res.Composed = cache.ComposeWeighted(wtallies)
	} else {
		res.Composed = cache.Compose(tallies)
	}
	if reg := inj.opts.Metrics; reg != nil {
		reg.Histogram("cache.compose_us").Since(composeStart)
	}
	span.EndWith(telemetry.Attrs{
		"hits": res.Hits, "misses": res.Misses, "seeded": res.SeededFuncs,
		"pilot": res.PilotExecuted, "sdc": res.Composed.SDC, "trials": res.N(),
	})
	return res, runErr
}

// section runs one function's share of a compositional campaign: nf
// slots drawn from the section's own stream, replayed from the cheapest
// sufficient cached profile or executed live (and then cached when
// clean). It returns the section with its per-trial weights and whether
// it stopped short of its full transcript; a nil section is a hard
// error.
func (inj *Injector) section(ctx context.Context, m mode, sec *funcSection, nf int, store *cache.Store, res *CompositionalResult) (*FuncCampaign, []float64, bool, error) {
	fc := &FuncCampaign{Name: sec.fn.Name, BodyHash: sec.hash, Weight: sec.weight, N: nf}
	seed := funcSeed(inj.opts.Seed, sec.fn.Name, sec.hash)
	specs := inj.sampleSection(sec, nf)
	newDesign := func() *design {
		d, _ := inj.newDesign(m, seed, specs, sec.fn) // m is plain or adaptive, both configured
		return d
	}
	fill := func(d *design, ar *AdaptiveResult) {
		fc.Records = trialRecs(ar.Trials)
		fc.Counts, fc.Errs, fc.PilotN = ar.Counts, ar.Errs, ar.PilotExecuted
		if d.derived {
			fc.Plan = ar.Plan.String()
		}
	}
	// replay drives d over a cached profile's records; ok reports a
	// complete, clean replay.
	replay := func(d *design, prof *cache.FuncProfile) (ar *AdaptiveResult, ok bool, err error) {
		recs, ok := profileRecs(sec.fn.Name, prof.Trials)
		if !ok {
			return nil, false, nil
		}
		ar, err = d.drive(0, nf, func(_ *phase, kept []trialSpec) (*CampaignResult, error) {
			return inj.replayLog(kept, recs), nil
		})
		return ar, err == nil && !d.partial && ar.Counts[Errored] == 0, err
	}

	// A clean live run is cached under liveKey: the plain key, or for an
	// adaptive section the key of its pilot + main transcript.
	plainKey := inj.funcKey(sec, nf)
	liveKey := plainKey
	if m == modeAdaptive {
		liveKey.Stratify = inj.adaptiveKey(sec)
	}
	var prof cache.FuncProfile
	if store != nil && (m == modePlain || nf > 0) &&
		store.Get(plainKey, &prof) && validProfile(plainKey, &prof) {
		d := newDesign()
		if m == modeAdaptive {
			d.seedFromProfile()
		}
		ar, ok, err := replay(d, &prof)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			fill(d, ar)
			fc.Cached = true
			res.Hits++
			if m == modeAdaptive {
				fc.Seeded = true
				res.SeededFuncs++
				skey := plainKey
				skey.Stratify = inj.seededKey(sec, ar.Plan)
				var have cache.FuncProfile
				if !store.Get(skey, &have) {
					if perr := store.Put(skey, cache.FuncProfile{
						Counts: outcomeCounts(fc.Counts), Trials: fc.Records,
					}); perr != nil {
						warnf("cache: storing seeded profile for @%s: %v", fc.Name, perr)
					}
				}
			}
			return fc, ar.Weights, false, nil
		}
		if m == modePlain {
			warnf("cache: profile for @%s does not replay (treating as miss)", fc.Name)
		}
	}
	if m == modeAdaptive && store != nil && nf > 0 {
		prof = cache.FuncProfile{}
		if store.Get(liveKey, &prof) {
			d := newDesign()
			ar, ok, err := replay(d, &prof)
			if err != nil {
				return nil, nil, false, err
			}
			if ok && ar.N() == len(prof.Trials) {
				fill(d, ar)
				fc.Cached = true
				res.Hits++
				return fc, ar.Weights, false, nil
			}
			warnf("cache: adaptive profile for @%s does not replay (treating as miss)", fc.Name)
		}
	}

	res.Misses++
	d := newDesign()
	ar, err := d.drive(0, nf, func(_ *phase, kept []trialSpec) (*CampaignResult, error) {
		return inj.runTrials(ctx, kept, nil)
	})
	if ar == nil {
		return nil, nil, false, err
	}
	fill(d, ar)
	res.PilotExecuted += fc.PilotN
	if err == nil && store != nil && fc.Counts[Errored] == 0 {
		if perr := store.Put(liveKey, cache.FuncProfile{
			Counts: outcomeCounts(fc.Counts), Trials: fc.Records,
		}); perr != nil {
			warnf("cache: storing profile for @%s: %v", fc.Name, perr)
		}
	}
	return fc, ar.Weights, d.partial, err
}
