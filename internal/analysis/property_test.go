package analysis

import (
	"testing"

	"trident/internal/irgen"
)

// TestDominanceInvariantsOnRandomPrograms checks structural invariants of
// the analyses over generated CFGs: the entry dominates every reachable
// block, dominance is reflexive, every back edge closes a detected natural
// loop, and reach probabilities from the entry cover the entry with mass 1.
func TestDominanceInvariantsOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		m := irgen.Generate(irgen.Config{Seed: seed})
		for _, f := range m.Funcs {
			c := Analyze(f)
			entry := f.Entry()
			for _, b := range c.RPO {
				if !c.Dominates(entry, b) {
					t.Fatalf("seed %d: entry does not dominate %s", seed, b.Name)
				}
				if !c.Dominates(b, b) {
					t.Fatalf("seed %d: dominance not reflexive at %s", seed, b.Name)
				}
			}
			// Every back edge must belong to the loop its target heads.
			for _, b := range c.RPO {
				for _, s := range b.Succs() {
					if !c.IsBackEdge(b, s) {
						continue
					}
					if l := c.LoopOf(s); l == nil || l.Header != s || !l.Contains(b) {
						t.Fatalf("seed %d: back edge %s->%s not in a loop", seed, b.Name, s.Name)
					}
				}
			}
			probs := ReachProbabilities(c, entry, uniformEdgeProb)
			if probs[entry] != 1 {
				t.Fatalf("seed %d: entry mass %v", seed, probs[entry])
			}
			for b, p := range probs {
				if p < 0 || p > 1+1e-9 {
					t.Fatalf("seed %d: block %s mass %v", seed, b.Name, p)
				}
			}
		}
	}
}

// TestLoopBodiesAreDominatedByHeaders: natural-loop property on random
// programs. Every block's innermost loop contains it, its header
// dominates the whole body, and some body block closes a back edge into
// the header.
func TestLoopBodiesAreDominatedByHeaders(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		m := irgen.Generate(irgen.Config{Seed: seed})
		for _, f := range m.Funcs {
			c := Analyze(f)
			for _, blk := range c.RPO {
				l := c.LoopOf(blk)
				if l == nil {
					continue
				}
				if !l.Contains(blk) {
					t.Fatalf("seed %d: LoopOf(%s) does not contain it", seed, blk.Name)
				}
				latched := false
				for b := range l.Body {
					if !c.Dominates(l.Header, b) {
						t.Fatalf("seed %d: loop header %s does not dominate body block %s",
							seed, l.Header.Name, b.Name)
					}
					latched = latched || c.IsBackEdge(b, l.Header)
				}
				if !latched {
					t.Fatalf("seed %d: loop at %s has no latches", seed, l.Header.Name)
				}
			}
		}
	}
}
