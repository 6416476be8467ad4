// Package profile implements the profiling phase of TRIDENT (paper §IV-A):
// a single instrumented execution of the program that gathers per-
// instruction dynamic counts, branch probabilities, operand-value samples
// (for deriving fs masking tuples), address-corruption crash sensitivity,
// and the pruned static memory-dependence graph used by fm. DESIGN.md §3
// specifies the sub-models each profile ingredient feeds.
package profile

import (
	"fmt"

	"trident/internal/interp"
	"trident/internal/ir"
)

// Options configure profiling.
type Options struct {
	// MaxDynInstrs bounds the profiled execution (0 = interpreter default).
	MaxDynInstrs uint64
	// ValueSamples is the reservoir size per instruction for operand and
	// address sampling (0 = default 64).
	ValueSamples int
	// Seed drives the deterministic reservoir sampler.
	Seed uint64
}

const defaultValueSamples = 64

// OperandSample is one observed pair of operand bit patterns.
type OperandSample struct {
	LHS, RHS uint64
}

// MemEdge is one static memory-dependence edge: dynamic instances of Store
// were read by dynamic instances of Load.
type MemEdge struct {
	Store *ir.Instr
	Load  *ir.Instr
	// DynDeps is the number of dynamic load executions that read a value
	// written by Store.
	DynDeps uint64
	// DistinctStores approximates the number of distinct dynamic store
	// instances of Store that Load read at least once.
	DistinctStores uint64
}

// Profile is the result of the profiling phase.
type Profile struct {
	// Module is the profiled module.
	Module *ir.Module
	// Golden is the fault-free execution result (output, counts).
	Golden *interp.Result

	// ExecCount maps each static instruction to its dynamic execution
	// count. Branches, stores and prints are included.
	ExecCount map[*ir.Instr]uint64
	// BranchTaken maps each conditional branch to [trueCount, falseCount].
	BranchTaken map[*ir.Instr][2]uint64
	// Samples holds reservoir-sampled operand values for instructions
	// whose fs tuple depends on operand values (comparisons, logic ops,
	// shifts, divisions).
	Samples map[*ir.Instr][]OperandSample
	// CrashSensitivity maps each load/store to the profiled probability
	// that flipping one uniformly random bit of its address traps, given
	// the live memory map at access time (paper §IV-C).
	CrashSensitivity map[*ir.Instr]float64

	// MemGraph maps each static store to its outgoing dependence edges.
	// Aggregating dynamic dependencies into static edges is the paper's
	// symmetric-loop pruning (§IV-E).
	MemGraph map[*ir.Instr][]*MemEdge
	// DynMemDeps is the total number of dynamic store→load dependencies
	// observed before pruning.
	DynMemDeps uint64

	// TotalDynResults is the number of dynamic register-writing
	// executions — the fault-activation sample space.
	TotalDynResults uint64
	// PeakMemBytes is the peak allocated memory (the /proc profile).
	PeakMemBytes uint64
}

// rng is a small deterministic xorshift64* generator for reservoir
// sampling; profiling must be reproducible run to run.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a pseudo-random int in [0, n).
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// collector accumulates profile state during execution.
type collector struct {
	prof     *Profile
	rnd      *rng
	capacity int

	sampleSeen map[*ir.Instr]uint64 // observations per sampled instruction
	crashSeen  map[*ir.Instr]uint64 // address observations per mem instruction
	crashDone  map[*ir.Instr]uint64 // observations actually measured
	crashSum   map[*ir.Instr]float64

	// lastWriter maps the first byte address of a stored element to the
	// writing static store and its dynamic sequence number. Loads are
	// matched by their first byte address; the IR programs in this
	// repository access elements at matching granularity.
	lastWriter map[uint64]writerRecord
	storeSeq   map[*ir.Instr]uint64 // per-store dynamic sequence
	edgeIndex  map[*ir.Instr]map[*ir.Instr]*MemEdge
	lastRead   map[*ir.Instr]map[*ir.Instr]uint64 // load -> store -> last seq read
}

type writerRecord struct {
	store *ir.Instr
	seq   uint64
}

// Collect profiles one execution of m and returns the profile. The
// execution must complete without crashing or hanging: the profile is the
// fault-free baseline.
func Collect(m *ir.Module, opts Options) (*Profile, error) {
	capacity := opts.ValueSamples
	if capacity <= 0 {
		capacity = defaultValueSamples
	}
	prof := &Profile{
		Module:           m,
		ExecCount:        make(map[*ir.Instr]uint64),
		BranchTaken:      make(map[*ir.Instr][2]uint64),
		Samples:          make(map[*ir.Instr][]OperandSample),
		CrashSensitivity: make(map[*ir.Instr]float64),
		MemGraph:         make(map[*ir.Instr][]*MemEdge),
	}
	col := &collector{
		prof:       prof,
		rnd:        newRNG(opts.Seed),
		capacity:   capacity,
		sampleSeen: make(map[*ir.Instr]uint64),
		crashSeen:  make(map[*ir.Instr]uint64),
		crashDone:  make(map[*ir.Instr]uint64),
		crashSum:   make(map[*ir.Instr]float64),
		lastWriter: make(map[uint64]writerRecord),
		storeSeq:   make(map[*ir.Instr]uint64),
		edgeIndex:  make(map[*ir.Instr]map[*ir.Instr]*MemEdge),
		lastRead:   make(map[*ir.Instr]map[*ir.Instr]uint64),
	}

	res, err := interp.Run(m, interp.Options{
		MaxDynInstrs: opts.MaxDynInstrs,
		Hooks: interp.Hooks{
			OnResult: col.onResult,
			OnBinary: col.onBinary,
			OnBranch: col.onBranch,
			OnLoad:   col.onLoad,
			OnStore:  col.onStore,
			OnPrint:  col.onPrint,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if res.Outcome != interp.OutcomeOK {
		return nil, fmt.Errorf("profile: fault-free run ended in %s", res.Outcome)
	}

	prof.Golden = res
	prof.TotalDynResults = res.DynResults
	prof.PeakMemBytes = res.PeakMemBytes
	for in, sum := range col.crashSum {
		prof.CrashSensitivity[in] = sum / float64(col.crashDone[in])
	}
	return prof, nil
}

// wantsSamples reports whether the fs tuple of the opcode depends on
// profiled operand values.
func wantsSamples(in *ir.Instr) bool {
	switch {
	case in.Op.IsCmp():
		return true
	case in.Op == ir.OpAnd, in.Op == ir.OpOr, in.Op == ir.OpXor,
		in.Op == ir.OpShl, in.Op == ir.OpLShr, in.Op == ir.OpAShr,
		in.Op == ir.OpSDiv, in.Op == ir.OpUDiv,
		in.Op == ir.OpSRem, in.Op == ir.OpURem, in.Op == ir.OpMul:
		return true
	case in.Op == ir.OpFAdd, in.Op == ir.OpFSub,
		in.Op == ir.OpFMul, in.Op == ir.OpFDiv:
		// Floating-point operations mask low mantissa bits through
		// absorption (adding magnitudes of different scale) and rounding;
		// the empirical tuples capture this, which the paper lists as an
		// unmodeled inaccuracy source (§VII-A).
		return true
	case in.Op == ir.OpIntrinsic:
		// Clamps (fmin/fmax) mask losing operands; sqrt/exp/log compress
		// mantissa differences.
		return true
	default:
		return false
	}
}

func (c *collector) onResult(_ *interp.Context, in *ir.Instr, bits uint64) uint64 {
	c.prof.ExecCount[in]++
	return bits
}

// onBinary reservoir-samples operand values for instructions whose fs
// tuple depends on them.
func (c *collector) onBinary(_ *interp.Context, in *ir.Instr, lhs, rhs uint64) {
	if !wantsSamples(in) {
		return
	}
	c.sampleSeen[in]++
	n := c.sampleSeen[in]
	samples := c.prof.Samples[in]
	switch {
	case len(samples) < c.capacity:
		c.prof.Samples[in] = append(samples, OperandSample{LHS: lhs, RHS: rhs})
	default:
		// Classic reservoir replacement keeps a uniform sample of the
		// stream, so value phases later in execution are represented.
		if k := c.rnd.intn(n); k < uint64(c.capacity) {
			samples[k] = OperandSample{LHS: lhs, RHS: rhs}
		}
	}
}

func (c *collector) onBranch(_ *interp.Context, in *ir.Instr, taken int) {
	c.prof.ExecCount[in]++
	if in.Op == ir.OpCondBr {
		bt := c.prof.BranchTaken[in]
		bt[taken]++
		c.prof.BranchTaken[in] = bt
	}
}

func (c *collector) onPrint(_ *interp.Context, in *ir.Instr, _ string) {
	c.prof.ExecCount[in]++
}

func (c *collector) onLoad(ctx *interp.Context, in *ir.Instr, addr, _ uint64) {
	c.observeAddress(ctx, in, addr)
	w, ok := c.lastWriter[addr]
	if !ok {
		return
	}
	c.prof.DynMemDeps++
	byStore := c.edgeIndex[w.store]
	if byStore == nil {
		byStore = make(map[*ir.Instr]*MemEdge)
		c.edgeIndex[w.store] = byStore
	}
	e := byStore[in]
	if e == nil {
		e = &MemEdge{Store: w.store, Load: in}
		byStore[in] = e
		c.prof.MemGraph[w.store] = append(c.prof.MemGraph[w.store], e)
	}
	e.DynDeps++
	lr := c.lastRead[in]
	if lr == nil {
		lr = make(map[*ir.Instr]uint64)
		c.lastRead[in] = lr
	}
	if last, seen := lr[w.store]; !seen || last != w.seq {
		e.DistinctStores++
		lr[w.store] = w.seq
	}
}

func (c *collector) onStore(ctx *interp.Context, in *ir.Instr, addr, _ uint64) {
	c.prof.ExecCount[in]++
	c.observeAddress(ctx, in, addr)
	c.storeSeq[in]++
	c.lastWriter[addr] = writerRecord{store: in, seq: c.storeSeq[in]}
}

// observeAddress reservoir-samples address-corruption crash sensitivity:
// the fraction of single-bit flips of addr that leave every live segment,
// evaluated against the memory map at access time.
func (c *collector) observeAddress(ctx *interp.Context, in *ir.Instr, addr uint64) {
	c.crashSeen[in]++
	n := c.crashSeen[in]
	if n > uint64(c.capacity) {
		// Reservoir: keep each observation with probability capacity/n by
		// replacing the running average contribution; for a streaming mean
		// it is simpler and adequate to subsample 1-in-k after warmup.
		if c.rnd.intn(n) >= uint64(c.capacity) {
			return
		}
	}
	c.crashDone[in]++
	size := uint64(in.Elem.Bytes())
	invalid := 0
	for bit := 0; bit < 64; bit++ {
		if !ctx.Mem.Valid(addr^(1<<uint(bit)), size) {
			invalid++
		}
	}
	c.crashSum[in] += float64(invalid) / 64
}

// BranchProb returns the profiled probability that the conditional branch
// takes its true edge; ok is false when the branch never executed.
func (p *Profile) BranchProb(br *ir.Instr) (pTrue float64, ok bool) {
	bt, found := p.BranchTaken[br]
	total := bt[0] + bt[1]
	if !found || total == 0 {
		return 0, false
	}
	return float64(bt[0]) / float64(total), true
}

// EdgeProb is an analysis.EdgeProbFunc backed by the branch profile.
// Unprofiled branches split evenly.
func (p *Profile) EdgeProb(b *ir.Block, succIdx int) float64 {
	t := b.Terminator()
	if t == nil || t.Op != ir.OpCondBr {
		return 1
	}
	pTrue, ok := p.BranchProb(t)
	if !ok {
		return 0.5
	}
	if succIdx == 0 {
		return pTrue
	}
	return 1 - pTrue
}

// CrashProb returns the profiled probability that a single random bit flip
// in the address feeding the given load/store causes a trap. Unprofiled
// instructions report the footprint-based estimate.
func (p *Profile) CrashProb(in *ir.Instr) float64 {
	if s, ok := p.CrashSensitivity[in]; ok {
		return s
	}
	return p.FootprintCrashProb()
}

// FootprintCrashProb estimates address-corruption crash probability from
// the peak memory footprint alone: flipping address bit k keeps the access
// near valid memory only when k is below log2(footprint). This mirrors the
// paper's /proc-based approximation and serves instructions that never
// executed during profiling.
func (p *Profile) FootprintCrashProb() float64 {
	if p.PeakMemBytes == 0 {
		return 1
	}
	bits := 0
	for v := p.PeakMemBytes; v > 1; v >>= 1 {
		bits++
	}
	safe := float64(bits)
	if safe > 64 {
		safe = 64
	}
	return (64 - safe) / 64
}

// StoreReadProb returns, for a static store S and one of its dependence
// edges to load L, the probability that a given dynamic instance of S is
// read by L: distinct read instances over dynamic executions of S.
func (p *Profile) StoreReadProb(e *MemEdge) float64 {
	execs := p.ExecCount[e.Store]
	if execs == 0 {
		return 0
	}
	pr := float64(e.DistinctStores) / float64(execs)
	if pr > 1 {
		pr = 1
	}
	return pr
}

// PruningRatio returns the fraction of dynamic memory dependencies removed
// by static aggregation — the paper reports an average of 61.87% (§V-C).
func (p *Profile) PruningRatio() float64 {
	if p.DynMemDeps == 0 {
		return 0
	}
	staticEdges := uint64(0)
	for _, edges := range p.MemGraph {
		staticEdges += uint64(len(edges))
	}
	return 1 - float64(staticEdges)/float64(p.DynMemDeps)
}

// NumStaticMemEdges returns the number of static dependence edges.
func (p *Profile) NumStaticMemEdges() int {
	n := 0
	for _, edges := range p.MemGraph {
		n += len(edges)
	}
	return n
}
