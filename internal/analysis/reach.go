package analysis

import (
	"trident/internal/ir"
)

// EdgeProbFunc returns the probability that control leaving block b takes
// the edge to its i-th successor. Implementations typically come from a
// branch profile; probabilities over a block's successors should sum to 1.
type EdgeProbFunc func(b *ir.Block, succIdx int) float64

// ReachProbabilities propagates one unit of probability mass from block
// `from` forward through the CFG with back edges removed (the acyclic
// skeleton), splitting mass at conditional branches according to edgeProb.
// The result maps each block to the probability that a single traversal
// starting at `from` reaches it within the current loop iteration — the
// quantity Pe in the paper's Equations 1 and 2.
func ReachProbabilities(c *CFG, from *ir.Block, edgeProb EdgeProbFunc) map[*ir.Block]float64 {
	mass := make(map[*ir.Block]float64, len(c.RPO))
	if !c.Reachable(from) {
		return mass
	}
	mass[from] = 1
	start := c.rpoIndex[from]
	for _, b := range c.RPO[start:] {
		m := mass[b]
		if m == 0 {
			continue
		}
		succs := b.Succs()
		for i, s := range succs {
			if c.IsBackEdge(b, s) {
				continue // acyclic skeleton
			}
			p := 1.0
			if len(succs) > 1 {
				p = edgeProb(b, i)
			}
			// RPO guarantees s comes after b except for back edges, which
			// are skipped, so mass[s] is not yet finalized.
			mass[s] += m * p
		}
	}
	return mass
}
