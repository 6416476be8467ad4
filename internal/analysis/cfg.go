// Package analysis provides the control-flow analyses over IR functions
// that TRIDENT's model reads: dominance, natural loops and their
// loop-terminating branches, and branch-probability reach mass.
// internal/core is its only consumer: the fs walks read dominance, back
// edges and the loop-terminating branches, and the fc sub-model reads
// loop bodies and reach mass. ANALYSIS.md §1 surveys the analyses;
// DESIGN.md §3 describes the fc sub-model they feed.
package analysis

import (
	"trident/internal/ir"
)

// CFG holds the control-flow analyses for one function. Construct with
// Analyze; the function must be verified and must not be mutated afterward.
type CFG struct {
	Fn *ir.Func

	// RPO is the reverse-postorder of reachable blocks, starting at entry.
	RPO []*ir.Block

	rpoIndex map[*ir.Block]int
	preds    map[*ir.Block][]*ir.Block // reachable predecessors
	idom     map[*ir.Block]*ir.Block
	loopOf   map[*ir.Block]*Loop // innermost containing loop
}

// Analyze computes all control-flow analyses for f.
func Analyze(f *ir.Func) *CFG {
	c := &CFG{
		Fn:       f,
		rpoIndex: make(map[*ir.Block]int),
		preds:    make(map[*ir.Block][]*ir.Block),
		idom:     make(map[*ir.Block]*ir.Block),
		loopOf:   make(map[*ir.Block]*Loop),
	}
	c.computeRPO()
	for _, b := range c.RPO {
		for _, s := range b.Succs() {
			c.preds[s] = append(c.preds[s], b)
		}
	}
	c.computeDominators()
	c.computeLoops()
	return c
}

// computeRPO performs a DFS from entry and records reverse postorder.
func (c *CFG) computeRPO() {
	entry := c.Fn.Entry()
	if entry == nil {
		return
	}
	seen := make(map[*ir.Block]bool, len(c.Fn.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	c.RPO = make([]*ir.Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		c.RPO = append(c.RPO, post[i])
	}
	for i, b := range c.RPO {
		c.rpoIndex[b] = i
	}
}

// Reachable reports whether b is reachable from the entry block.
func (c *CFG) Reachable(b *ir.Block) bool {
	_, ok := c.rpoIndex[b]
	return ok
}

// computeDominators implements the Cooper-Harvey-Kennedy iterative
// algorithm on the RPO.
func (c *CFG) computeDominators() {
	if len(c.RPO) == 0 {
		return
	}
	entry := c.RPO[0]
	c.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range c.RPO[1:] {
			var newIdom *ir.Block
			for _, p := range c.preds[b] {
				if c.idom[p] == nil {
					continue // not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = c.intersect(p, newIdom)
				}
			}
			if newIdom != nil && c.idom[b] != newIdom {
				c.idom[b] = newIdom
				changed = true
			}
		}
	}
}

// intersect walks two nodes up the dominator tree to their common
// ancestor.
func (c *CFG) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for c.rpoIndex[a] > c.rpoIndex[b] {
			a = c.idom[a]
		}
		for c.rpoIndex[b] > c.rpoIndex[a] {
			b = c.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively).
func (c *CFG) Dominates(a, b *ir.Block) bool {
	if !c.Reachable(a) || !c.Reachable(b) {
		return false
	}
	entry := c.RPO[0]
	for {
		if b == a {
			return true
		}
		if b == entry {
			return false
		}
		b = c.idom[b]
	}
}
