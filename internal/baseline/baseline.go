// Package baseline reimplements the two prior models the paper compares
// against in §VII-C:
//
//   - PVF (Sridharan & Kaeli): the architecturally-correct-execution (ACE)
//     fraction. PVF does not distinguish crashes or benign outcomes from
//     SDCs, so any fault whose corruption reaches any architectural sink
//     counts. The paper measures PVF's average prediction at 90.62%
//     against a 13.59% FI ground truth.
//
//   - ePVF (Fang et al.): PVF with crash-causing faults removed. ePVF
//     still cannot separate benign faults from SDCs (it does not model
//     control-flow divergence or memory-level masking), predicting
//     52.55% on the paper's benchmarks.
//
// Both read the caller's TRIDENT model: PVF sums the terminals of the
// decomposition core.Model.Explain returns, the same fs walk whose parts
// Algorithm 1 weights, so the comparison isolates the modeling
// differences rather than implementation differences. DESIGN.md §4
// indexes the Fig. 9 experiment these baselines feed.
package baseline

import (
	"trident/internal/core"
	"trident/internal/ir"
)

// Predictor is the interface shared by TRIDENT and the baselines: a
// per-instruction SDC probability.
type Predictor interface {
	InstrSDC(in *ir.Instr) float64
}

// PVF predicts the SDC probability of an instruction as its ACE fraction:
// the probability that the corruption reaches any architectural sink
// (output, memory, control flow, or a trap). Crashes and benign reaching
// faults are not separated from SDCs — the model's defining weakness.
type PVF struct {
	model *core.Model
}

// NewPVF builds the PVF baseline over the terminals of model's fs walks.
func NewPVF(model *core.Model) *PVF { return &PVF{model: model} }

var _ Predictor = (*PVF)(nil)

// InstrSDC implements Predictor.
func (p *PVF) InstrSDC(in *ir.Instr) float64 {
	return aceMass(p.model.Explain(in))
}

// aceMass is PVF over one decomposition: the direct share plus every
// store's corruption mass, every branch's flip mass and the crash share,
// capped at 1.
func aceMass(ex *core.Explanation) float64 {
	stores, flips := 0.0, 0.0
	for _, sc := range ex.Stores {
		stores += sc.CorruptProb
	}
	for _, bc := range ex.Branches {
		flips += bc.FlipProb
	}
	v := ex.Direct + stores + flips + ex.Crash
	if v > 1 {
		v = 1
	}
	return v
}

// OverallSDC returns the execution-weighted mean prediction.
func (p *PVF) OverallSDC() float64 {
	return p.model.Expectation(p.InstrSDC)
}

// EPVF refines PVF by removing crash-causing faults from the prediction.
// The crash estimate comes from a CrashOracle when provided (the paper
// gave ePVF FI-measured crash rates, conservatively overestimating its
// accuracy); otherwise the model's own crash estimate is used.
type EPVF struct {
	model *core.Model
	// CrashOracle overrides the modeled per-instruction crash
	// probability; nil uses the model estimate.
	CrashOracle func(in *ir.Instr) float64
}

// NewEPVF builds the ePVF baseline over model's fs walks.
func NewEPVF(model *core.Model) *EPVF { return &EPVF{model: model} }

var _ Predictor = (*EPVF)(nil)

// InstrSDC implements Predictor.
func (e *EPVF) InstrSDC(in *ir.Instr) float64 {
	ex := e.model.Explain(in)
	crash := ex.Crash
	if e.CrashOracle != nil {
		crash = e.CrashOracle(in)
	}
	v := aceMass(ex) - crash
	if v < 0 {
		v = 0
	}
	return v
}

// OverallSDC returns the execution-weighted mean prediction.
func (e *EPVF) OverallSDC() float64 {
	return e.model.Expectation(e.InstrSDC)
}
