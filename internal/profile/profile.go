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
	// Seed drives the deterministic reservoir sampler.
	Seed uint64
}

// reservoirSize is the number of operand samples, and of address
// crash-sensitivity observations, kept per instruction.
const reservoirSize = 64

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

// collector accumulates profile state during execution. Per-instruction
// tallies live in one dense table per function, indexed by instruction
// ID; cur caches the table of the function the last event came from, so
// consecutive events of one function find theirs by a pointer compare.
type collector struct {
	prof *Profile
	rnd  *rng

	tables map[*ir.Func][]tally
	curFn  *ir.Func
	cur    []tally

	// lastWriter maps the first byte address of a stored element to the
	// writing static store and its dynamic sequence number. Loads are
	// matched by their first byte address; the IR programs in this
	// repository access elements at matching granularity.
	lastWriter map[uint64]writerRecord
}

// tally is the collector's state for one static instruction.
type tally struct {
	execCount  uint64
	branch     [2]uint64 // conditional branches: [trueCount, falseCount]
	sampleSeen uint64    // operand observations of a sampled instruction
	samples    []OperandSample
	crashSeen  uint64 // address observations of a load/store
	crashDone  uint64 // address observations actually measured
	crashSum   float64
	storeSeq   uint64     // dynamic sequence of a store
	edges      []*MemEdge // a store's dependence edges, in discovery order
	reads      []loadRead // a load's dependence edges
}

// loadRead is one dependence edge into a load with the sequence number of
// the store instance the load read last.
type loadRead struct {
	edge *MemEdge
	seq  uint64
}

type writerRecord struct {
	store *ir.Instr
	seq   uint64
}

// Collect profiles one execution of m and returns the profile. The
// execution must complete without crashing or hanging: the profile is the
// fault-free baseline.
func Collect(m *ir.Module, opts Options) (*Profile, error) {
	col := &collector{
		rnd:        newRNG(opts.Seed),
		tables:     make(map[*ir.Func][]tally, len(m.Funcs)),
		lastWriter: make(map[uint64]writerRecord),
		prof:       &Profile{Module: m},
	}

	res, err := interp.Run(m, interp.Options{
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
	prof := col.finish()
	prof.Golden = res
	prof.TotalDynResults = res.DynResults
	prof.PeakMemBytes = res.PeakMemBytes
	return prof, nil
}

// finish builds the exported per-instruction maps from the tallies. An
// instruction gets an entry only in the maps whose event it saw.
func (c *collector) finish() *Profile {
	prof := c.prof
	prof.ExecCount = make(map[*ir.Instr]uint64)
	prof.BranchTaken = make(map[*ir.Instr][2]uint64)
	prof.Samples = make(map[*ir.Instr][]OperandSample)
	prof.CrashSensitivity = make(map[*ir.Instr]float64)
	prof.MemGraph = make(map[*ir.Instr][]*MemEdge)
	for _, f := range prof.Module.Funcs {
		table := c.tables[f]
		if table == nil {
			continue
		}
		f.Instrs(func(in *ir.Instr) {
			t := &table[in.ID]
			if t.execCount > 0 {
				prof.ExecCount[in] = t.execCount
			}
			if t.branch[0]+t.branch[1] > 0 {
				prof.BranchTaken[in] = t.branch
			}
			if len(t.samples) > 0 {
				prof.Samples[in] = t.samples
			}
			if t.crashDone > 0 {
				prof.CrashSensitivity[in] = t.crashSum / float64(t.crashDone)
			}
			if len(t.edges) > 0 {
				prof.MemGraph[in] = t.edges
			}
		})
	}
	return prof
}

// tallyOf returns the tally of in, switching the cached table when the
// event comes from another function than the last one.
func (c *collector) tallyOf(in *ir.Instr) *tally {
	if fn := in.Block.Fn; fn != c.curFn {
		table, ok := c.tables[fn]
		if !ok {
			n := 0
			fn.Instrs(func(in *ir.Instr) { n = max(n, in.ID+1) })
			table = make([]tally, n)
			c.tables[fn] = table
		}
		c.curFn, c.cur = fn, table
	}
	return &c.cur[in.ID]
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
	c.tallyOf(in).execCount++
	return bits
}

// onBinary reservoir-samples operand values for instructions whose fs
// tuple depends on them.
func (c *collector) onBinary(_ *interp.Context, in *ir.Instr, lhs, rhs uint64) {
	if !wantsSamples(in) {
		return
	}
	t := c.tallyOf(in)
	t.sampleSeen++
	switch {
	case len(t.samples) < reservoirSize:
		t.samples = append(t.samples, OperandSample{LHS: lhs, RHS: rhs})
	default:
		// Classic reservoir replacement keeps a uniform sample of the
		// stream, so value phases later in execution are represented.
		if k := c.rnd.intn(t.sampleSeen); k < reservoirSize {
			t.samples[k] = OperandSample{LHS: lhs, RHS: rhs}
		}
	}
}

func (c *collector) onBranch(_ *interp.Context, in *ir.Instr, taken int) {
	t := c.tallyOf(in)
	t.execCount++
	if in.Op == ir.OpCondBr {
		t.branch[taken]++
	}
}

func (c *collector) onPrint(_ *interp.Context, in *ir.Instr, _ string) {
	c.tallyOf(in).execCount++
}

func (c *collector) onLoad(ctx *interp.Context, in *ir.Instr, addr, _ uint64) {
	t := c.tallyOf(in)
	c.observeAddress(ctx, in, t, addr)
	w, ok := c.lastWriter[addr]
	if !ok {
		return
	}
	c.prof.DynMemDeps++
	var r *loadRead
	for i := range t.reads {
		if t.reads[i].edge.Store == w.store {
			r = &t.reads[i]
			break
		}
	}
	if r == nil {
		e := &MemEdge{Store: w.store, Load: in}
		st := c.tallyOf(w.store)
		st.edges = append(st.edges, e)
		t.reads = append(t.reads, loadRead{edge: e})
		r = &t.reads[len(t.reads)-1]
	}
	r.edge.DynDeps++
	if r.seq != w.seq {
		r.edge.DistinctStores++
		r.seq = w.seq
	}
}

func (c *collector) onStore(ctx *interp.Context, in *ir.Instr, addr, _ uint64) {
	t := c.tallyOf(in)
	t.execCount++
	c.observeAddress(ctx, in, t, addr)
	t.storeSeq++
	c.lastWriter[addr] = writerRecord{store: in, seq: t.storeSeq}
}

// observeAddress reservoir-samples address-corruption crash sensitivity:
// the fraction of single-bit flips of addr that leave every live segment,
// evaluated against the memory map at access time.
func (c *collector) observeAddress(ctx *interp.Context, in *ir.Instr, t *tally, addr uint64) {
	t.crashSeen++
	if n := t.crashSeen; n > reservoirSize {
		// Reservoir: keep each observation with probability reservoirSize/n by
		// replacing the running average contribution; for a streaming mean
		// it is simpler and adequate to subsample 1-in-k after warmup.
		if c.rnd.intn(n) >= reservoirSize {
			return
		}
	}
	t.crashDone++
	t.crashSum += float64(ctx.Mem.TrappingFlips(addr, uint64(in.Elem.Bytes()))) / 64
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
	return (64 - float64(ir.HighestBit(p.PeakMemBytes))) / 64
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
