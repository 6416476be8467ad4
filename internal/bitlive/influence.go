package bitlive

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"trident/internal/hashutil"
	"trident/internal/ir"
)

// This file classifies every injectable (instruction, bit) pair into an
// influence stratum — the static half of stratified fault-injection
// sampling (ANALYSIS.md, "Stratified sampling over live bits"). Where
// the liveness pass (bitlive.go) answers "can this bit matter at all?",
// the classifier ranks the bits that *can* matter by how they matter:
// address bits trap or corrupt memory, compare-boundary bits steer
// control flow, sign bits flip magnitudes, and the rest is low-influence
// "noise". Campaigns sample each stratum at its own rate and reweight by
// inverse inclusion probability (internal/fault, Options.Stratify), so
// the classification only shapes variance, never correctness.

// InfluenceVersion names the classifier revision. It is folded into
// every influence hash, so checkpoint headers stop matching when the
// classification rules change.
const InfluenceVersion = "bitinfluence/v1"

// Stratum identifies one influence class of a result bit. The numeric
// order is the priority order used when a bit qualifies for several
// classes: the highest-valued stratum wins (a sign bit that feeds a
// comparison is Boundary, not Sign; a provably-masked bit is always
// Masked regardless of its uses).
type Stratum uint8

const (
	// StratumNoise is the default for live bits with no recognized
	// high-influence use: mid-mantissa bits, intermediate arithmetic.
	StratumNoise Stratum = iota
	// StratumSign marks the top bit of a result register — flipping it
	// negates two's-complement values and IEEE floats.
	StratumSign
	// StratumBoundary marks bits that steer control flow: operands of
	// comparisons (restricted to the boundary-crossing bits when the
	// comparison is against a constant, via the same icmp analysis the
	// liveness pass uses), branch conditions, and select conditions.
	StratumBoundary
	// StratumAddress marks bits that form memory addresses: pointer-
	// typed results, load/store address operands, gep bases and the
	// live bits of gep indices.
	StratumAddress
	// StratumMasked covers the provably-masked bits from the liveness
	// Report: injection is guaranteed Benign, so sampling them is pure
	// confirmation.
	StratumMasked

	// NumStrata is the number of strata.
	NumStrata = int(StratumMasked) + 1
)

// String returns the stratum's short name (used in plans, reports and
// hashes).
func (s Stratum) String() string {
	switch s {
	case StratumMasked:
		return "masked"
	case StratumNoise:
		return "noise"
	case StratumSign:
		return "sign"
	case StratumBoundary:
		return "boundary"
	case StratumAddress:
		return "address"
	default:
		return fmt.Sprintf("stratum(%d)", uint8(s))
	}
}

// Strata lists every stratum in priority order (lowest first).
func Strata() []Stratum {
	return []Stratum{StratumNoise, StratumSign, StratumBoundary, StratumAddress, StratumMasked}
}

// Influence holds the per-instruction stratum masks of one module. The
// masks of one instruction are disjoint and cover its full result
// width. Immutable after ClassifyInfluence and safe for concurrent
// readers.
type Influence struct {
	masks map[*ir.Instr][NumStrata]uint64
}

// ClassifyInfluence classifies every result bit of m into its influence
// stratum, using r (which must come from Analyze(m)) for the Masked
// stratum. The classification derives from direct uses only — it is a
// variance heuristic, not a soundness claim, and the stratified
// estimator stays unbiased under any classification.
func ClassifyInfluence(m *ir.Module, r *Report) *Influence {
	addr := make(map[*ir.Instr]uint64)
	boundary := make(map[*ir.Instr]uint64)
	// mark accumulates use-derived demand on the defining instruction of
	// v, clipped to its width.
	mark := func(into map[*ir.Instr]uint64, v ir.Value, d uint64) {
		if in, ok := v.(*ir.Instr); ok && in.HasResult() {
			into[in] |= d & widthMask(in.Type.Bits())
		}
	}
	m.Instrs(func(u *ir.Instr) {
		switch u.Op {
		case ir.OpLoad:
			mark(addr, u.Operands[0], all64)
		case ir.OpStore:
			mark(addr, u.Operands[1], all64)
		case ir.OpGep:
			// addr = base + signext(index)*stride: the base is an address
			// and the index bits that survive the stride scaling (see the
			// liveness rule) are address bits too.
			mark(addr, u.Operands[0], all64)
			s := bits.TrailingZeros64(uint64(u.Elem.Bytes()))
			mark(addr, u.Operands[1], widthMask(64-s))
		case ir.OpCondBr:
			mark(boundary, u.Operands[0], 1)
		case ir.OpSelect:
			mark(boundary, u.Operands[0], 1)
		case ir.OpICmp:
			lhs, rhs := u.Operands[0], u.Operands[1]
			lc, lok := constBits(lhs)
			rc, rok := constBits(rhs)
			w := lhs.ValueType().Bits()
			switch {
			case lok == rok:
				// Two variables (or two constants — then mark is a no-op):
				// every bit of either side can decide the comparison.
				mark(boundary, lhs, all64)
				mark(boundary, rhs, all64)
			case rok:
				mark(boundary, lhs, icmpConstLive(u.Pred, rc, w))
			default:
				mark(boundary, rhs, icmpConstLive(swapPred(u.Pred), lc, w))
			}
		}
	})
	inf := &Influence{masks: make(map[*ir.Instr][NumStrata]uint64)}
	m.Instrs(func(in *ir.Instr) {
		if !in.HasResult() {
			return
		}
		w := in.Type.Bits()
		full := widthMask(w)
		var ms [NumStrata]uint64
		ms[StratumMasked] = r.Masked(in)
		ms[StratumAddress] = addr[in]
		if in.Type == ir.Ptr {
			// The value *is* an address.
			ms[StratumAddress] = full
		}
		ms[StratumBoundary] = boundary[in]
		if w > 1 {
			ms[StratumSign] = 1 << uint(w-1)
		}
		// Resolve overlaps by priority (highest stratum wins), then give
		// the remainder to Noise.
		claimed := uint64(0)
		for s := NumStrata - 1; s >= 0; s-- {
			ms[s] = ms[s] & full &^ claimed
			claimed |= ms[s]
		}
		ms[StratumNoise] = full &^ claimed
		inf.masks[in] = ms
	})
	return inf
}

// Stratum returns the influence stratum of one result bit. Instructions
// outside the classified module (or bits outside the result width)
// report StratumNoise.
func (inf *Influence) Stratum(in *ir.Instr, bit int) Stratum {
	ms, ok := inf.masks[in]
	if !ok {
		return StratumNoise
	}
	b := uint64(1) << uint(bit)
	for s := NumStrata - 1; s >= 0; s-- {
		if ms[s]&b != 0 {
			return Stratum(s)
		}
	}
	return StratumNoise
}

// funcHash content-addresses one function's stratum tables: the hash of
// InfluenceVersion plus every (instruction ID, per-stratum masks) tuple
// in ID order.
func (inf *Influence) funcHash(fn *ir.Func) uint64 {
	var sb strings.Builder
	sb.WriteString(InfluenceVersion)
	sb.WriteByte('|')
	sb.WriteString(fn.Name)
	fn.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			ms := inf.masks[in]
			fmt.Fprintf(&sb, "|%d", in.ID)
			for s := 0; s < NumStrata; s++ {
				fmt.Fprintf(&sb, ":%x", ms[s])
			}
		}
	})
	return hashutil.String(sb.String())
}

// ModuleHash folds funcHash over every function of m in definition
// order — the influence analogue of Report.ModuleHash.
func (inf *Influence) ModuleHash(m *ir.Module) uint64 {
	var sb strings.Builder
	for _, fn := range m.Funcs {
		fmt.Fprintf(&sb, "%x|", inf.funcHash(fn))
	}
	return hashutil.String(sb.String())
}

// StratumStats counts the result bits of each stratum across a module.
type StratumStats struct {
	// Bits holds the per-stratum bit counts.
	Bits [NumStrata]int
	// Total is the total result-register bit count.
	Total int
}

// ModuleStats surveys every result-defining instruction of m.
func (inf *Influence) ModuleStats(m *ir.Module) StratumStats {
	var st StratumStats
	m.Instrs(func(in *ir.Instr) {
		if !in.HasResult() {
			return
		}
		ms := inf.masks[in]
		for s := 0; s < NumStrata; s++ {
			st.Bits[s] += bits.OnesCount64(ms[s])
		}
		st.Total += in.Type.Bits()
	})
	return st
}

// Plan assigns each stratum its sampling rate: the probability that a
// drawn trial targeting a bit of that stratum is actually executed.
// Rates must lie in (0, 1] — a zero rate would make the inverse-
// probability weight undefined and the estimator biased.
type Plan struct {
	// Rates holds the per-stratum inclusion probabilities, indexed by
	// Stratum.
	Rates [NumStrata]float64
}

// DefaultMaskedRate is the masked-stratum inclusion rate of the standard
// static plan: one confirmation trial in twenty.
const DefaultMaskedRate = 0.05

// DefaultPlan is the standard stratification: run every live stratum at
// rate 1 and keep only a confirmation sliver of the provably-masked bits
// (DefaultMaskedRate, 1/20). Thinning a stratum whose SDC rate is nonzero
// trades executed trials for variance (each surviving hit carries weight
// 1/q and Horvitz-Thompson variance w(w−1)), and measurements across the
// workload set show the live "noise" bits carry enough SDC mass that
// thinning them widens the interval at equal executed trials. The masked
// stratum is the opposite: the liveness oracle guarantees those bits
// Benign, so their hits contribute zero thinning variance and the
// effective sample size stays at the full slot count — a pure CI win.
// The sliver that still executes (rather than rate 0, which Validate
// forbids anyway) keeps the estimator unbiased even if the oracle were
// wrong, and doubles as a live cross-check on it. Custom plans can thin
// noise (or sign/boundary/address) when prior knowledge says their SDC
// mass is low.
func DefaultPlan() Plan {
	return MaskedRatePlan(DefaultMaskedRate)
}

// MaskedRatePlan is DefaultPlan with the masked-stratum sliver set to
// rate: live strata run at 1, provably-masked bits at rate. The rate is
// folded into Plan.Hash like any other, so checkpoints and caches fence
// differently-thinned campaigns apart. Callers must Validate (rate must
// lie in (0, 1]); the adaptive pilot plans call it with their rate
// floor.
func MaskedRatePlan(rate float64) Plan {
	var p Plan
	p.Rates[StratumMasked] = rate
	p.Rates[StratumNoise] = 1
	p.Rates[StratumSign] = 1
	p.Rates[StratumBoundary] = 1
	p.Rates[StratumAddress] = 1
	return p
}

// UniformPlan runs every stratum at rate 1 — no thinning at all. It is
// the pilot phase of adaptive campaigns: every drawn slot executes, so
// per-stratum outcome tallies estimate each stratum's SDC rate without
// any reweighting.
func UniformPlan() Plan {
	var p Plan
	for s := 0; s < NumStrata; s++ {
		p.Rates[s] = 1
	}
	return p
}

// Validate checks every rate lies in (0, 1].
func (p Plan) Validate() error {
	for s := 0; s < NumStrata; s++ {
		r := p.Rates[s]
		if !(r > 0) || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("bitlive: stratum %s rate %v outside (0, 1]", Stratum(s), r)
		}
	}
	return nil
}

// Rate returns the inclusion probability of stratum s.
func (p Plan) Rate(s Stratum) float64 { return p.Rates[s] }

// Hash content-addresses the plan (InfluenceVersion plus the exact bit
// patterns of every rate).
func (p Plan) Hash() uint64 {
	var sb strings.Builder
	sb.WriteString(InfluenceVersion)
	for s := 0; s < NumStrata; s++ {
		fmt.Fprintf(&sb, "|%s:%x", Stratum(s), math.Float64bits(p.Rates[s]))
	}
	return hashutil.String(sb.String())
}

// String renders the plan compactly (for CLI summaries and logs).
func (p Plan) String() string {
	var sb strings.Builder
	for i, s := range Strata() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%g", s, p.Rates[s])
	}
	return sb.String()
}
