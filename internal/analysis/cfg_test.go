package analysis

import (
	"math"
	"testing"

	"trident/internal/ir"
)

// buildDiamond builds:
//
//	entry -> (then | else) -> join -> exit(ret)
func buildDiamond(t testing.TB) (*ir.Module, *CFG) {
	t.Helper()
	m := ir.NewModule("diamond")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	join := b.NewBlock("join")

	b.SetBlock(entry)
	c := b.ICmp(ir.PredSGT, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 0))
	b.CondBr(c, then, els)
	b.SetBlock(then)
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	b.Ret(nil)

	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, Analyze(f)
}

// buildLoopNest builds a two-level loop nest:
//
//	entry -> outer.head -> inner.head -> inner.body -> inner.head (back)
//	inner.head -> outer.latch -> outer.head (back)
//	outer.head -> exit(ret)
func buildLoopNest(t testing.TB) (*ir.Func, *CFG) {
	t.Helper()
	m := ir.NewModule("nest")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	outerHead := b.NewBlock("outer.head")
	innerHead := b.NewBlock("inner.head")
	innerBody := b.NewBlock("inner.body")
	outerLatch := b.NewBlock("outer.latch")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(outerHead)

	b.SetBlock(outerHead)
	oc := b.ICmp(ir.PredSLT, ir.ConstInt(ir.I32, 0), ir.ConstInt(ir.I32, 3))
	b.CondBr(oc, innerHead, exit)

	b.SetBlock(innerHead)
	ic := b.ICmp(ir.PredSLT, ir.ConstInt(ir.I32, 0), ir.ConstInt(ir.I32, 5))
	b.CondBr(ic, innerBody, outerLatch)

	b.SetBlock(innerBody)
	b.Br(innerHead)

	b.SetBlock(outerLatch)
	b.Br(outerHead)

	b.SetBlock(exit)
	b.Ret(nil)

	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return f, Analyze(f)
}

func TestRPOStartsAtEntryAndCoversAll(t *testing.T) {
	_, c := buildDiamond(t)
	if len(c.RPO) != 4 {
		t.Fatalf("RPO has %d blocks, want 4", len(c.RPO))
	}
	if c.RPO[0].Name != "entry" {
		t.Errorf("RPO[0] = %s", c.RPO[0].Name)
	}
	if c.RPO[len(c.RPO)-1].Name != "join" {
		t.Errorf("RPO last = %s, want join", c.RPO[len(c.RPO)-1].Name)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	m, c := buildDiamond(t)
	f := m.Func("main")
	entry, then, els, join := f.Block("entry"), f.Block("then"), f.Block("else"), f.Block("join")

	if !c.Dominates(entry, join) || !c.Dominates(entry, then) || !c.Dominates(entry, els) {
		t.Error("entry should dominate all blocks")
	}
	if c.Dominates(then, join) || c.Dominates(els, join) {
		t.Error("branch arms must not dominate the join")
	}
	if !c.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}
}

func TestLoopDetectionNest(t *testing.T) {
	f, c := buildLoopNest(t)
	outerHead := f.Block("outer.head")
	innerHead := f.Block("inner.head")
	innerBody := f.Block("inner.body")
	outerLatch := f.Block("outer.latch")

	inner := c.LoopOf(innerBody)
	if inner == nil || inner.Header != innerHead {
		t.Fatalf("inner loop not found: %+v", inner)
	}
	outer := c.LoopOf(outerLatch)
	if outer == nil || outer.Header != outerHead {
		t.Fatalf("outer loop not found: %+v", outer)
	}
	if !outer.Contains(innerHead) || !outer.Contains(innerBody) {
		t.Error("outer loop body should include inner blocks")
	}
	if inner.Contains(outerHead) || inner.Contains(outerLatch) {
		t.Error("inner loop body should exclude the outer loop's own blocks")
	}
	if c.LoopOf(outerHead) != outer {
		t.Error("LoopOf(outer.head) should be outer loop")
	}
	for _, name := range []string{"entry", "exit"} {
		if l := c.LoopOf(f.Block(name)); l != nil {
			t.Errorf("%s is in the loop headed by %s, want no loop", name, l.Header.Name)
		}
	}
	// The innermost loop of the inner header is the inner loop.
	if c.LoopOf(innerHead) != inner {
		t.Error("LoopOf(inner.head) should be inner loop")
	}
}

func TestBackEdges(t *testing.T) {
	f, c := buildLoopNest(t)
	innerHead := f.Block("inner.head")
	innerBody := f.Block("inner.body")
	outerHead := f.Block("outer.head")
	outerLatch := f.Block("outer.latch")
	entry := f.Block("entry")

	if !c.IsBackEdge(innerBody, innerHead) {
		t.Error("inner.body -> inner.head should be a back edge")
	}
	if !c.IsBackEdge(outerLatch, outerHead) {
		t.Error("outer.latch -> outer.head should be a back edge")
	}
	if c.IsBackEdge(entry, outerHead) {
		t.Error("entry -> outer.head must not be a back edge")
	}
	if c.IsBackEdge(innerHead, innerBody) {
		t.Error("forward edge misclassified as back edge")
	}
}

func TestIsLoopTerminating(t *testing.T) {
	f, c := buildLoopNest(t)
	outerHead := f.Block("outer.head")
	innerHead := f.Block("inner.head")

	lt, cont := c.IsLoopTerminating(outerHead)
	if !lt {
		t.Fatal("outer.head branch should be loop-terminating")
	}
	if outerHead.Succs()[cont].Name != "inner.head" {
		t.Errorf("continuing edge = %s", outerHead.Succs()[cont].Name)
	}
	lt, cont = c.IsLoopTerminating(innerHead)
	if !lt {
		t.Fatal("inner.head branch should be loop-terminating")
	}
	if innerHead.Succs()[cont].Name != "inner.body" {
		t.Errorf("continuing edge = %s", innerHead.Succs()[cont].Name)
	}

	m, dc := buildDiamond(t)
	entry := m.Func("main").Block("entry")
	if lt, _ := dc.IsLoopTerminating(entry); lt {
		t.Error("diamond branch misclassified as loop-terminating")
	}
}

func TestReachProbabilitiesDiamond(t *testing.T) {
	m, c := buildDiamond(t)
	f := m.Func("main")
	entry, then, els, join := f.Block("entry"), f.Block("then"), f.Block("else"), f.Block("join")

	// 30% true edge, 70% false edge.
	probs := ReachProbabilities(c, entry, func(b *ir.Block, i int) float64 {
		if i == 0 {
			return 0.3
		}
		return 0.7
	})
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !approx(probs[entry], 1) || !approx(probs[then], 0.3) ||
		!approx(probs[els], 0.7) || !approx(probs[join], 1) {
		t.Errorf("probs = entry %.3f then %.3f else %.3f join %.3f",
			probs[entry], probs[then], probs[els], probs[join])
	}
}

// uniformEdgeProb splits mass evenly across a block's successors.
func uniformEdgeProb(b *ir.Block, _ int) float64 { return 1 / float64(len(b.Succs())) }

func TestReachProbabilitiesSkipsBackEdges(t *testing.T) {
	f, c := buildLoopNest(t)
	innerHead := f.Block("inner.head")
	probs := ReachProbabilities(c, innerHead, uniformEdgeProb)
	// Within one traversal, mass from inner.head reaches inner.body with
	// 0.5 and does not wrap around the back edge (inner.head stays 1).
	if probs[innerHead] != 1 {
		t.Errorf("inner.head mass = %v, want 1 (no back-edge wrap)", probs[innerHead])
	}
	if probs[f.Block("inner.body")] != 0.5 {
		t.Errorf("inner.body mass = %v, want 0.5", probs[f.Block("inner.body")])
	}
	// Through outer.latch the mass re-reaches outer.head only via the back
	// edge, which is skipped.
	if probs[f.Block("outer.head")] != 0 {
		t.Errorf("outer.head mass = %v, want 0", probs[f.Block("outer.head")])
	}
}

func TestReachProbabilitiesFromMidBlock(t *testing.T) {
	m, c := buildDiamond(t)
	f := m.Func("main")
	then, join := f.Block("then"), f.Block("join")
	probs := ReachProbabilities(c, then, uniformEdgeProb)
	if probs[join] != 1 || probs[f.Block("else")] != 0 {
		t.Errorf("probs from then: join=%v else=%v", probs[join], probs[f.Block("else")])
	}
}

func TestUnreachableBlockHandling(t *testing.T) {
	m := ir.NewModule("unreach")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	dead := b.NewBlock("dead")
	b.SetBlock(entry)
	b.Ret(nil)
	b.SetBlock(dead)
	b.Ret(nil)
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	c := Analyze(f)
	if c.Reachable(dead) {
		t.Error("dead block should be unreachable")
	}
	if c.Dominates(dead, entry) || c.Dominates(entry, dead) {
		t.Error("dominance with unreachable block should be false")
	}
	if len(c.RPO) != 1 {
		t.Errorf("RPO = %d blocks, want 1", len(c.RPO))
	}
}
