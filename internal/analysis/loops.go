package analysis

import (
	"trident/internal/ir"
)

// Loop is a natural loop identified by its back edges: a header block and
// the set of blocks that can reach a back-edge source without leaving the
// header's dominance region.
type Loop struct {
	// Header is the single entry block of the loop.
	Header *ir.Block
	// Body is the set of blocks in the loop, including Header.
	Body map[*ir.Block]bool
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.Body[b] }

// computeLoops finds back edges (a→h where h dominates a), builds natural
// loop bodies, merges loops sharing a header, and maps each block to its
// innermost loop.
func (c *CFG) computeLoops() {
	var loops []*Loop
	byHeader := make(map[*ir.Block]*Loop)
	for _, b := range c.RPO {
		for _, s := range b.Succs() {
			if !c.Dominates(s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Body: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			// Natural loop body: backward walk from the latch.
			var stack []*ir.Block
			if !l.Body[b] {
				l.Body[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range c.preds[n] {
					if !l.Body[p] {
						l.Body[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}

	// The innermost loop containing a block is the smallest body
	// containing it.
	for _, b := range c.RPO {
		var innermost *Loop
		for _, l := range loops {
			if !l.Contains(b) {
				continue
			}
			if innermost == nil || len(l.Body) < len(innermost.Body) {
				innermost = l
			}
		}
		if innermost != nil {
			c.loopOf[b] = innermost
		}
	}
}

// LoopOf returns the innermost loop containing b, or nil.
func (c *CFG) LoopOf(b *ir.Block) *Loop { return c.loopOf[b] }

// IsBackEdge reports whether the CFG edge from a to b is a loop back edge.
func (c *CFG) IsBackEdge(a, b *ir.Block) bool {
	return c.Reachable(a) && c.Reachable(b) && c.Dominates(b, a) && isSucc(a, b)
}

func isSucc(a, b *ir.Block) bool {
	for _, s := range a.Succs() {
		if s == b {
			return true
		}
	}
	return false
}

// IsLoopTerminating reports whether the conditional branch terminating
// block b controls loop termination: one successor edge stays in (or
// re-enters) a loop containing b while the other leaves it, or one of the
// edges is a back edge. This is the paper's LT/NLT classification
// (§IV-D). The second result is the index (0 or 1) of the successor that
// continues the loop; it is only meaningful when the first result is true.
func (c *CFG) IsLoopTerminating(b *ir.Block) (bool, int) {
	t := b.Terminator()
	if t == nil || t.Op != ir.OpCondBr {
		return false, 0
	}
	l := c.LoopOf(b)
	if l == nil {
		return false, 0
	}
	in0 := l.Contains(t.Targets[0])
	in1 := l.Contains(t.Targets[1])
	switch {
	case in0 && !in1:
		return true, 0
	case in1 && !in0:
		return true, 1
	default:
		// Both stay or both leave: the branch does not decide termination
		// of this loop.
		return false, 0
	}
}
