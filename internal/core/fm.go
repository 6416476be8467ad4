package core

import (
	"slices"

	"trident/internal/ir"
)

// fm is the memory sub-model (paper §IV-E): the probability that a
// corrupted value written by a given static store eventually reaches the
// program's output, conditioned on the magnitude band of the stored
// corruption (low-band corruption can hide below reduced-precision
// output; high-band corruption cannot).
//
// The profiler already collapsed dynamic store→load dependencies into
// static edges (the paper's symmetric-loop pruning); here those edges are
// followed, recursively invoking fs from each reading load and fc at each
// branch the corruption flips. Store→load→store chains form cycles, so
// the equation system
//
//	out_b(S) = min(1, Σ_L w(S,L) · [ fs_b(L).output
//	                               + Σ_{S',b'} fs_b(L).stores[S'][b']·out_b'(S')
//	                               + branch terms ])
//
// is solved as a least fixed point by monotone iteration from zero; this
// subsumes the paper's memoization and terminates because the map is
// monotone and bounded by 1.
func (m *Model) memOut(store *ir.Instr, band int) float64 {
	m.solveMemory()
	id, ok := m.g.id[store]
	if !ok {
		return 0
	}
	return m.fmOut[fmIndex(id, band)]
}

// fmIndex is the dense index of the fm unknown for (store node, band).
func fmIndex(store int32, band int) int32 { return store*nClasses + int32(band) }

// fmTerm is one linear term of a store's fm equation: coeff·out(key).
type fmTerm struct {
	coeff float64
	key   int32
}

// fmEquation is out(key) = min(1, constant + Σ coeff·out(term.key)).
type fmEquation struct {
	key      int32
	constant float64
	terms    []fmTerm
}

// regTerms returns the constant (direct output share) and the fm-linear
// store terms of corruption starting at def's result. Control-divergence
// corruption is whole-value, so the walk starts in the replaced class.
// Branch recursion is excluded: register effects of flipped branches are
// one level deep, which keeps Algorithm 1 finite and avoids double
// counting.
func (m *Model) regTerms(def *ir.Instr) (float64, []fmTerm) {
	e := m.walkFrom(def, walkBand(classReplaced))
	terms := make([]fmTerm, 0, len(e.stores))
	for _, se := range e.stores {
		for band := 0; band < nClasses; band++ {
			if se.p[band] > 0 {
				terms = append(terms, fmTerm{coeff: se.p[band], key: fmIndex(se.node, band)})
			}
		}
	}
	return e.output, terms
}

// regSDC is the SDC probability of a corrupted register live-out (a
// RegCorruption def), resolving store terms through fm when enabled.
func (m *Model) regSDC(def *ir.Instr) float64 {
	c, terms := m.regTerms(def)
	if m.cfg.EnableFM {
		m.solveMemory()
		for _, t := range terms {
			c += t.coeff * m.fmOut[t.key]
		}
	} else {
		for _, t := range terms {
			c += t.coeff
		}
	}
	if c > 1 {
		c = 1
	}
	return c
}

// solveMemory builds and solves the fm equation system once per model.
// Equations are ordered by store (instruction order), then band.
func (m *Model) solveMemory() {
	if m.fmOut != nil {
		return
	}
	g := m.compiled()
	m.fmOut = make([]float64, len(g.instrs)*nClasses)

	stores := make([]int32, 0, len(m.prof.MemGraph))
	for store := range m.prof.MemGraph {
		if id, ok := g.id[store]; ok {
			stores = append(stores, id)
		}
	}
	slices.Sort(stores)

	eqs := make([]fmEquation, 0, len(stores)*nClasses)
	for _, store := range stores {
		edges := m.prof.MemGraph[g.instrs[store]]
		for band := 0; band < nClasses; band++ {
			eq := fmEquation{key: fmIndex(store, band)}
			for _, e := range edges {
				w := m.prof.StoreReadProb(e)
				if w == 0 {
					continue
				}
				// Pruning ablation: replicate the edge once per dynamic
				// dependency with proportionally split weight. The fixed
				// point is unchanged; the work is what the unpruned
				// dynamic dependence graph would cost.
				replicas := 1
				if m.cfg.ExpandMemEdges && e.DynDeps > 1 {
					replicas = int(e.DynDeps)
				}
				wr := w / float64(replicas)
				for r := 0; r < replicas; r++ {
					m.addEdgeTerms(&eq, e.Load, band, wr)
				}
			}
			eqs = append(eqs, eq)
		}
	}
	m.runFixedPoint(eqs)
}

// addEdgeTerms appends one dependence edge's contribution to a store's
// equation: the fs walk from the reading load (seeded with the stored
// corruption's band), with fc effects expanded.
func (m *Model) addEdgeTerms(eq *fmEquation, load *ir.Instr, band int, w float64) {
	loadEnds := m.walkFrom(load, walkBand(band))
	eq.constant += w * loadEnds.output
	for _, se := range loadEnds.stores {
		for b := 0; b < nClasses; b++ {
			if se.p[b] > 0 {
				eq.terms = append(eq.terms, fmTerm{coeff: w * se.p[b], key: fmIndex(se.node, b)})
			}
		}
	}
	if !m.cfg.EnableFC {
		return
	}
	for _, be := range loadEnds.branches {
		eff := m.fcEffectsOf(m.g.instrs[be.node])
		for _, sc := range eff.stores {
			// Divergence-corrupted stores are high band.
			eq.terms = append(eq.terms,
				fmTerm{coeff: w * be.p * sc.Prob, key: fmIndex(m.g.id[sc.Store], classReplaced)})
		}
		for _, rc := range eff.regs {
			c, terms := m.regTerms(rc.Def)
			eq.constant += w * be.p * rc.Prob * c
			for _, t := range terms {
				eq.terms = append(eq.terms,
					fmTerm{coeff: w * be.p * rc.Prob * t.coeff, key: t.key})
			}
		}
	}
}

// runFixedPoint iterates the equation system to its least fixed point by
// monotone Gauss-Seidel sweeps from zero: each sweep updates the unknowns
// in place, in equation order, so later equations already see the values
// earlier ones produced in the same sweep. It records the number of sweeps
// run, which is the cap when the system has not converged by then.
func (m *Model) runFixedPoint(eqs []fmEquation) {
	maxIters := m.cfg.FMMaxIters
	if maxIters <= 0 {
		maxIters = 200
	}
	const eps = 1e-10
	sweeps := 0
	for sweeps < maxIters {
		sweeps++
		maxDelta := 0.0
		for _, eq := range eqs {
			v := eq.constant
			for _, t := range eq.terms {
				v += t.coeff * m.fmOut[t.key]
			}
			if v > 1 {
				v = 1
			}
			if d := v - m.fmOut[eq.key]; d > maxDelta {
				maxDelta = d
			}
			m.fmOut[eq.key] = v
		}
		if maxDelta < eps {
			break
		}
	}
	m.fmIterations = sweeps
}
