package core

import (
	"math"
	"testing"

	"trident/internal/ir"
	"trident/internal/irgen"
	"trident/internal/profile"
	"trident/internal/progs"
)

// This file keeps the whole-graph worklist walker that fixpoint replaced
// as a test-only oracle. It chases the least fixed points by increments
// until none grows by more than eps, so as eps shrinks it approaches the
// limit that fixpoint solves for directly.

// iterativeFixpoint computes the banded reach quantities from start into the
// scratch, both least fixed points over the def-use graph:
//
// reach — expected corrupted executions per band (total bounded by
// ExecCount): value corruption compounds through loop-carried phis, so an
// accumulator whose exit value always prints converges to full
// propagation.
//
// once — probability that at least one execution is corrupted, per band
// (edge weights capped at 1, bands capped at 1): used for crash
// probabilities, because a single flipped bit retries the *same* wrong
// address every iteration — the trials are perfectly correlated, and the
// first access decides.
//
// guards, when non-nil, lists loop-guarding conditional branches with the
// probability the corruption flips them; phi arms crossing a back edge
// guarded by such a branch have their consumption scaled by the
// complement (the corruption survives into the next iteration only when
// the guard still passes).
func (m *Model) iterativeFixpoint(start int32, seed bandPair, guards []guardFlip, eps float64) {
	g, s := m.g, &m.scratch
	s.reset()
	s.touch(start)
	s.reach[start], s.once[start], s.inSum[start], s.onceSum[start] = seed, seed, seed, seed

	worklist := append(s.worklist[:0], start)
	for len(worklist) > 0 {
		node := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		r := s.reach[node]
		o := s.once[node]
		for eid := g.start[node]; eid < g.start[node+1]; eid++ {
			ed := &g.edges[eid]
			if ed.terminal {
				continue // sinks; handled during extraction from reach
			}
			w := ed.weight
			if guards != nil {
				w *= m.guardScale(node, eid, guards)
			}
			if w <= 0 {
				continue
			}
			w1 := min(w, 1)
			tr, _ := m.edgeTransition(ed)

			var newContrib, newOnce bandPair
			for from := 0; from < nClasses; from++ {
				for band := 0; band < nClasses; band++ {
					newContrib[band] += r[from] * w * tr[from][band]
					newOnce[band] += o[from] * w1 * tr[from][band]
				}
			}

			to, slot := ed.to, ed.slot
			s.touchEdge(slot)
			changed := false

			if old := s.contrib[slot]; grew(newContrib, old, eps) {
				s.touch(to)
				sum := s.inSum[to]
				for band := 0; band < nClasses; band++ {
					if newContrib[band] > old[band] {
						sum[band] += newContrib[band] - old[band]
						old[band] = newContrib[band]
					}
				}
				s.contrib[slot] = old
				s.inSum[to] = sum
				target := sum
				if bound := g.count[to]; target.total() > bound {
					f := bound / target.total()
					for band := range target {
						target[band] *= f
					}
				}
				if grew(target, s.reach[to], eps) {
					s.reach[to] = target
					changed = true
				}
			}

			if oldOnce := s.onceContrib[slot]; grew(newOnce, oldOnce, eps) {
				s.touch(to)
				sum := s.onceSum[to]
				for band := 0; band < nClasses; band++ {
					if newOnce[band] > oldOnce[band] {
						sum[band] += newOnce[band] - oldOnce[band]
						oldOnce[band] = newOnce[band]
					}
				}
				s.onceContrib[slot] = oldOnce
				s.onceSum[to] = sum
				target := sum
				// "At least once" is a probability of a single event: cap
				// the total, preserving the band mix.
				if t := target.total(); t > 1 {
					for band := range target {
						target[band] /= t
					}
				}
				if grew(target, s.once[to], eps) {
					s.once[to] = target
					changed = true
				}
			}

			if changed {
				worklist = append(worklist, to)
			}
		}
	}
	s.worklist = worklist
}

// oracleWalk is walkFrom with iterativeFixpoint in place of fixpoint: the
// walk of the given slot of the walk cache.
func (m *Model) oracleWalk(slot int, eps float64) *ends {
	id, mode := int32(slot/(nClasses+1)), walkMode(slot%(nClasses+1)-1)
	e := &ends{}
	if m.g.count[id] == 0 {
		return e
	}
	var seed bandPair
	if mode == walkUniform {
		seed = bandSplit(m.g.instrs[id].Type)
	} else {
		seed[int(mode)] = 1
	}
	m.iterativeFixpoint(id, seed, nil, eps)
	guards := m.guardFlips()
	if len(guards) > 0 {
		m.iterativeFixpoint(id, seed, guards, eps)
	}
	m.extract(e, guards)
	return e
}

// oracleModel returns a model over prof, after predict has run on it,
// whose every fs walk came from the iterative oracle at eps. The walks a
// prediction needs are found by making it: each pass seeds a fresh model's
// walk cache with oracle walks for every slot an earlier pass filled, and
// the passes stop once a prediction fills no new slot.
func oracleModel(prof *profile.Profile, cfg Config, eps float64, predict func(*Model)) *Model {
	oracle := New(prof, cfg)
	oracle.compiled()
	walks := make(map[int]*ends)
	for {
		m := New(prof, cfg)
		m.compiled()
		for slot, e := range walks {
			m.walks[slot] = e
		}
		predict(m)
		added := false
		for slot, e := range m.walks {
			if e != nil && walks[slot] == nil {
				walks[slot] = oracle.oracleWalk(slot, eps)
				added = true
			}
		}
		if !added {
			return m
		}
	}
}

// limitTol bounds how far a per-instruction prediction of the direct
// solve may sit from the iterative oracle's at limitEps.
const (
	limitEps = 1e-12
	limitTol = 1e-10
)

// compareWithLimit checks InstrSDC and InstrCrash of every executed
// result-producing instruction against the iterative oracle, under each
// model variant, and returns the largest difference seen.
func compareWithLimit(t *testing.T, name string, prof *profile.Profile) float64 {
	t.Helper()
	var targets []*ir.Instr
	prof.Module.Instrs(func(in *ir.Instr) {
		if in.HasResult() && prof.ExecCount[in] > 0 {
			targets = append(targets, in)
		}
	})
	predict := func(m *Model) {
		for _, in := range targets {
			m.InstrSDC(in)
			m.InstrCrash(in)
		}
	}
	worst := 0.0
	for _, v := range variants {
		got := New(prof, v.cfg)
		want := oracleModel(prof, v.cfg, limitEps, predict)
		for _, in := range targets {
			for _, q := range []struct {
				what      string
				got, want float64
			}{
				{"InstrSDC", got.InstrSDC(in), want.InstrSDC(in)},
				{"InstrCrash", got.InstrCrash(in), want.InstrCrash(in)},
			} {
				d := math.Abs(q.got - q.want)
				worst = max(worst, d)
				if d > limitTol {
					t.Errorf("%s/%s: %s(%s) = %.17g, iterative limit %.17g (diff %.2e)",
						name, v.name, q.what, in.Pos(), q.got, q.want, d)
				}
			}
		}
	}
	return worst
}

// TestFixpointMatchesIterativeLimit requires the component-wise direct
// solve to reproduce, per instruction, the limit the iterative walker
// approaches, on every paper kernel and on a random irgen corpus. The
// oracle is slow on sad and bfs-parboil, so -short leaves those two out.
func TestFixpointMatchesIterativeLimit(t *testing.T) {
	worst := 0.0
	for _, p := range progs.All() {
		if testing.Short() && (p.Name == "sad" || p.Name == "bfs-parboil") {
			continue
		}
		worst = max(worst, compareWithLimit(t, p.Name, kernelProfile(t, p.Name)))
	}
	const corpus = 100
	checked := 0
	for seed := uint64(1); checked < corpus; seed++ {
		prof, err := profile.Collect(irgen.Generate(irgen.Config{Seed: seed}), profile.Options{Seed: seed})
		if err != nil {
			continue
		}
		checked++
		worst = max(worst, compareWithLimit(t, "irgen", prof))
	}
	t.Logf("largest difference from the iterative limit: %.2e", worst)
}
