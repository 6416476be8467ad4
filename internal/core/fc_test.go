package core

import (
	"math"
	"testing"

	"trident/internal/ir"
	"trident/internal/profile"
)

// modelFor builds a model over a hand-made profile: the given branch
// counts substitute for a profiled run, so fc can be validated against the
// paper's worked examples with their exact probabilities.
func modelFor(m *ir.Module, branchCounts map[string][2]uint64, cfg Config) *Model {
	prof := &profile.Profile{
		Module:           m,
		ExecCount:        make(map[*ir.Instr]uint64),
		BranchTaken:      make(map[*ir.Instr][2]uint64),
		Samples:          make(map[*ir.Instr][]profile.OperandSample),
		CrashSensitivity: make(map[*ir.Instr]float64),
		MemGraph:         make(map[*ir.Instr][]*profile.MemEdge),
	}
	m.Instrs(func(in *ir.Instr) {
		prof.ExecCount[in] = 1
	})
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if counts, ok := branchCounts[b.Name]; ok {
				prof.BranchTaken[b.Terminator()] = counts
			}
		}
	}
	return New(prof, cfg)
}

// buildFig3a reproduces the paper's Figure 3a (NLT example):
//
//	bb0 --T(0.2)--> bb2, --F(0.8)--> bb1
//	bb1 --T(0.1)--> bb2, --F(0.9)--> bb3
//	bb3 --T(0.7)--> bb4(store), --F(0.3)--> bb5
//	all paths join in bb10.
//
// Expected: fc(bb0 branch) gives the store Pc = 0.8*0.9*0.7/0.8 = 0.63.
func buildFig3a(t testing.TB) (*ir.Module, *ir.Instr, *ir.Instr) {
	t.Helper()
	m := ir.NewModule("fig3a")
	m.AddGlobal("g", ir.I32, 1, nil)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	bb0 := b.NewBlock("bb0")
	bb1 := b.NewBlock("bb1")
	bb2 := b.NewBlock("bb2")
	bb3 := b.NewBlock("bb3")
	bb4 := b.NewBlock("bb4")
	bb5 := b.NewBlock("bb5")
	bb10 := b.NewBlock("bb10")

	g := m.Global("g")
	b.SetBlock(bb0)
	v := b.Load(ir.I32, g)
	c0 := b.ICmp(ir.PredSGT, v, ir.ConstInt(ir.I32, 0))
	br0 := b.CondBr(c0, bb2, bb1)

	b.SetBlock(bb1)
	c1 := b.ICmp(ir.PredSGT, v, ir.ConstInt(ir.I32, 1))
	b.CondBr(c1, bb2, bb3)

	b.SetBlock(bb3)
	c3 := b.ICmp(ir.PredSGT, v, ir.ConstInt(ir.I32, 2))
	b.CondBr(c3, bb4, bb5)

	b.SetBlock(bb4)
	store := b.Store(ir.ConstInt(ir.I32, 1), g)
	b.Br(bb10)

	b.SetBlock(bb2)
	b.Br(bb10)
	b.SetBlock(bb5)
	b.Br(bb10)
	b.SetBlock(bb10)
	b.Ret(nil)

	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, br0, store
}

func TestFCNonLoopTerminatingPaperExample(t *testing.T) {
	m, br0, store := buildFig3a(t)
	model := modelFor(m, map[string][2]uint64{
		"bb0": {20, 80}, // T 0.2, F 0.8
		"bb1": {10, 90}, // T 0.1, F 0.9
		"bb3": {70, 30}, // T 0.7, F 0.3
	}, TridentConfig())

	result := model.fcEffectsOf(br0).stores
	if len(result) != 1 {
		t.Fatalf("fc returned %d stores, want 1", len(result))
	}
	if result[0].Store != store {
		t.Error("fc identified the wrong store")
	}
	if math.Abs(result[0].Prob-0.63) > 1e-9 {
		t.Errorf("Pc = %v, want 0.63 (paper Fig. 3a)", result[0].Prob)
	}
}

func TestFCStoreImmediatelyDominatedGetsOne(t *testing.T) {
	// Figure 2a shape: branch directly guards the store; Pc must be 1.
	m, err := ir.Parse(`
module "fig2"
global @g i32 x 1
func @main() void {
entry:
  %v = load i32, @g
  %c = icmp sgt %v, i32 0
  condbr %c, t, f
t:
  store i32 1, @g
  br f
f:
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(m, map[string][2]uint64{"entry": {50, 50}}, TridentConfig())
	br := m.Func("main").Block("entry").Terminator()
	result := model.fcEffectsOf(br).stores
	if len(result) != 1 || math.Abs(result[0].Prob-1) > 1e-9 {
		t.Fatalf("fc = %+v, want single store with Pc = 1", result)
	}
}

// buildFig3b reproduces the paper's Figure 3b (LT example):
//
//	bb0 (loop header) --T(0.99)--> bb1, --F(0.01)--> bb5 (exit)
//	bb1 --T(0.1)--> bb0 (back edge), --F(0.9)--> bb2
//	bb2 --T(0.7)--> bb4(store), --F(0.3)--> bb3
//	bb3 and bb4 branch back to bb0.
//
// Expected: fc(bb0 branch) gives the store Pc = 0.99*0.9*0.7 ≈ 0.62.
func buildFig3b(t testing.TB) (*ir.Module, *ir.Instr, *ir.Instr) {
	t.Helper()
	m := ir.NewModule("fig3b")
	m.AddGlobal("g", ir.I32, 1, nil)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	bb0 := b.NewBlock("bb0")
	bb1 := b.NewBlock("bb1")
	bb2 := b.NewBlock("bb2")
	bb3 := b.NewBlock("bb3")
	bb4 := b.NewBlock("bb4")
	bb5 := b.NewBlock("bb5")
	g := m.Global("g")

	b.SetBlock(bb0)
	v := b.Load(ir.I32, g)
	c0 := b.ICmp(ir.PredSGT, v, ir.ConstInt(ir.I32, 0))
	br0 := b.CondBr(c0, bb1, bb5)

	b.SetBlock(bb1)
	c1 := b.ICmp(ir.PredSGT, v, ir.ConstInt(ir.I32, 1))
	b.CondBr(c1, bb0, bb2)

	b.SetBlock(bb2)
	c2 := b.ICmp(ir.PredSGT, v, ir.ConstInt(ir.I32, 2))
	b.CondBr(c2, bb4, bb3)

	b.SetBlock(bb3)
	b.Br(bb0)

	b.SetBlock(bb4)
	store := b.Store(ir.ConstInt(ir.I32, 1), g)
	b.Br(bb0)

	b.SetBlock(bb5)
	b.Ret(nil)

	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, br0, store
}

func TestFCLoopTerminatingPaperExample(t *testing.T) {
	m, br0, store := buildFig3b(t)
	model := modelFor(m, map[string][2]uint64{
		"bb0": {99, 1},  // T 0.99 continue, F 0.01 exit
		"bb1": {10, 90}, // T 0.1 back edge, F 0.9 onward
		"bb2": {70, 30}, // T 0.7 store, F 0.3
	}, TridentConfig())

	result := model.fcEffectsOf(br0).stores
	if len(result) != 1 {
		t.Fatalf("fc returned %d stores, want 1", len(result))
	}
	if result[0].Store != store {
		t.Error("fc identified the wrong store")
	}
	want := 0.99 * 0.9 * 0.7
	if math.Abs(result[0].Prob-want) > 1e-9 {
		t.Errorf("Pc = %v, want %v (paper Fig. 3b)", result[0].Prob, want)
	}
}

func TestFCIgnoresStoresPastTheJoin(t *testing.T) {
	m, err := ir.Parse(`
module "join"
global @g i32 x 1
func @main() void {
entry:
  %v = load i32, @g
  %c = icmp sgt %v, i32 0
  condbr %c, t, f
t:
  br join
f:
  br join
join:
  store i32 1, @g
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(m, map[string][2]uint64{"entry": {50, 50}}, TridentConfig())
	br := m.Func("main").Block("entry").Terminator()
	if result := model.fcEffectsOf(br).stores; len(result) != 0 {
		t.Errorf("fc = %+v, want empty (store executes on both paths)", result)
	}
}

func TestFCNonCondBrReturnsNil(t *testing.T) {
	m, br0, _ := buildFig3a(t)
	model := modelFor(m, nil, TridentConfig())
	ret := m.Func("main").Block("bb10").Terminator()
	if got := model.fcEffectsOf(ret).stores; got != nil {
		t.Errorf("fc(ret) = %v, want nil", got)
	}
	// Unprofiled branches fall back to 0.5 splits without crashing.
	if got := model.fcEffectsOf(br0).stores; len(got) != 1 {
		t.Errorf("fc with default probs returned %d stores", len(got))
	}
}

func TestFCCaching(t *testing.T) {
	m, br0, _ := buildFig3a(t)
	model := modelFor(m, map[string][2]uint64{
		"bb0": {20, 80}, "bb1": {10, 90}, "bb3": {70, 30},
	}, TridentConfig())
	a := model.fcEffectsOf(br0).stores
	b := model.fcEffectsOf(br0).stores
	if &a[0] != &b[0] {
		t.Error("fc results should be cached")
	}
}
