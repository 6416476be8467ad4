package core

import (
	"math"
	"testing"

	"trident/internal/ir"
	"trident/internal/profile"
)

// profiledModel parses src, profiles one execution and builds a model.
func profiledModel(t testing.TB, src string, cfg Config) *Model {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return New(prof, cfg)
}

func instrByName(t testing.TB, m *ir.Module, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	m.Instrs(func(in *ir.Instr) {
		if in.Name == name {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("register %%%s not found", name)
	}
	return found
}

func instrByOp(t testing.TB, m *ir.Module, block string, op ir.Opcode) *ir.Instr {
	t.Helper()
	for _, in := range m.Func("main").Block(block).Instrs {
		if in.Op == op {
			return in
		}
	}
	t.Fatalf("no %s in %s", op, block)
	return nil
}

// storedOf returns the walk's corruption of store's value (zero when the
// walk does not reach it).
func storedOf(m *Model, e *ends, store *ir.Instr) bandPair {
	for _, se := range e.stores {
		if m.g.instrs[se.node] == store {
			return se.p
		}
	}
	return bandPair{}
}

// flipOf returns the walk's flip probability of br (zero when the walk
// does not reach it).
func flipOf(m *Model, e *ends, br *ir.Instr) float64 {
	for _, be := range e.branches {
		if m.g.instrs[be.node] == br {
			return be.p
		}
	}
	return 0
}

// TestCmpSignBitPropagation reproduces the paper's Figure 2b: for
// "cmp sgt %v, 0" with a positive profiled value, only the sign bit flips
// the branch, so the propagation probability is 1/32 ≈ 0.03.
func TestCmpSignBitPropagation(t *testing.T) {
	model := profiledModel(t, `
module "fig2b"
global @g i32 x 1 = [4]
func @main() void {
entry:
  %v0 = load i32, @g
  %v = add %v0, i32 1
  %c = icmp sgt %v, i32 0
  condbr %c, t, f
t:
  br f
f:
  ret
}
`, TridentConfig())
	// Profiled sample: lhs = 5, rhs = 0. Flipping only the sign bit of 5
	// changes sgt(5, 0). The full chain from %v: propagation 1 (add) then
	// 1/32 at the cmp, reaching the branch.
	e := model.walkFrom(instrByName(t, model.prof.Module, "v"), walkUniform)
	br := model.prof.Module.Func("main").Block("entry").Terminator()
	if got := flipOf(model, e, br); math.Abs(got-1.0/32) > 1e-9 {
		t.Errorf("branch flip prob = %v, want 1/32", got)
	}
	if e.output != 0 || len(e.stores) != 0 {
		t.Error("chain should end only at the branch")
	}
}

func TestWalkDirectOutput(t *testing.T) {
	model := profiledModel(t, `
module "direct"
func @main() void {
entry:
  %a = add i64 1, i64 2
  %b = mul %a, i64 3
  print %b
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "a"), walkUniform)
	if math.Abs(e.output-1) > 1e-9 {
		t.Errorf("output prob = %v, want 1", e.output)
	}
}

func TestWalkLogicalMasking(t *testing.T) {
	// %m = and %x, 0xFF: only 8 of 64 bits of %x survive.
	model := profiledModel(t, `
module "mask"
func @main() void {
entry:
  %x = add i64 12345, i64 0
  %m = and %x, i64 255
  print %m
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if math.Abs(e.output-8.0/64) > 1e-9 {
		t.Errorf("output prob = %v, want 0.125 (and-masking)", e.output)
	}
	// xor never masks.
	model2 := profiledModel(t, `
module "mask2"
func @main() void {
entry:
  %x = add i64 12345, i64 0
  %m = xor %x, i64 255
  print %m
  ret
}
`, TridentConfig())
	e2 := model2.walkFrom(instrByName(t, model2.prof.Module, "x"), walkUniform)
	if math.Abs(e2.output-1) > 1e-9 {
		t.Errorf("xor output prob = %v, want 1", e2.output)
	}
}

func TestWalkTruncMasking(t *testing.T) {
	model := profiledModel(t, `
module "trunc"
func @main() void {
entry:
  %x = add i64 7, i64 0
  %tr = trunc %x to i16
  print %tr
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if math.Abs(e.output-16.0/64) > 1e-9 {
		t.Errorf("output prob = %v, want 0.25 (trunc)", e.output)
	}
}

func TestWalkShiftMasking(t *testing.T) {
	// lshr by 56 leaves 8 live bit positions out of 64.
	model := profiledModel(t, `
module "shift"
func @main() void {
entry:
  %x = add i64 -1, i64 0
  %s = lshr %x, i64 56
  print %s
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if math.Abs(e.output-8.0/64) > 1e-9 {
		t.Errorf("output prob = %v, want 0.125 (lshr 56)", e.output)
	}
}

func TestWalkEndsAtStore(t *testing.T) {
	model := profiledModel(t, `
module "tostore"
global @g i64 x 1
func @main() void {
entry:
  %x = add i64 5, i64 0
  store %x, @g
  %v = load i64, @g
  print %v
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	store := instrByOp(t, model.prof.Module, "entry", ir.OpStore)
	if got := storedOf(model, e, store).total(); math.Abs(got-1) > 1e-9 {
		t.Errorf("store corruption prob = %v, want 1", got)
	}
	if e.output != 0 {
		t.Errorf("direct output = %v, want 0 (print feeds from memory)", e.output)
	}
}

func TestWalkAddressCorruptionCrash(t *testing.T) {
	model := profiledModel(t, `
module "addr"
global @g i64 x 8 = [1, 2, 3, 4, 5, 6, 7, 8]
func @main() void {
entry:
  %i = add i64 3, i64 0
  %p = gep i64, @g, %i
  %v = load i64, %p
  print %v
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "i"), walkUniform)
	if e.crash < 0.5 {
		t.Errorf("crash prob = %v, want high (most address bits trap)", e.crash)
	}
	// The surviving share propagates through the load to output.
	wantOut := 1 - e.crash
	if math.Abs(e.output-wantOut) > 1e-9 {
		t.Errorf("output prob = %v, want %v (1 - crash)", e.output, wantOut)
	}
}

func TestWalkStoreAddressCrashOnly(t *testing.T) {
	model := profiledModel(t, `
module "staddr"
global @g i64 x 8
func @main() void {
entry:
  %i = add i64 3, i64 0
  %p = gep i64, @g, %i
  store i64 42, %p
  %q = gep i64, @g, i64 3
  %v = load i64, %q
  print %v
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "i"), walkUniform)
	if e.crash < 0.5 {
		t.Errorf("crash prob = %v, want high", e.crash)
	}
	// A corrupted store address never counts as a corrupted stored value.
	store := instrByOp(t, model.prof.Module, "entry", ir.OpStore)
	if got := storedOf(model, e, store).total(); got != 0 {
		t.Errorf("store value corruption = %v, want 0 for address corruption", got)
	}
}

func TestWalkFanOutCapsAtOne(t *testing.T) {
	model := profiledModel(t, `
module "fan"
func @main() void {
entry:
  %x = add i64 1, i64 0
  %a = add %x, i64 1
  %b = add %x, i64 2
  %c = add %a, %b
  print %c
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if e.output > 1 {
		t.Errorf("output prob = %v, must be capped at 1", e.output)
	}
}

func TestWalkThroughPhiCycle(t *testing.T) {
	// An accumulator: the corruption persists through the loop-carried phi
	// and reaches the final print with probability 1.
	model := profiledModel(t, `
module "acc"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %acc = phi i64 [i64 0, entry], [%sum, loop]
  %sum = add %acc, %i
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 8
  condbr %c, loop, done
done:
  print %sum
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "sum"), walkUniform)
	if math.Abs(e.output-1) > 1e-6 {
		t.Errorf("accumulator output prob = %v, want 1", e.output)
	}
}

func TestWalkInterprocedural(t *testing.T) {
	model := profiledModel(t, `
module "inter"
func @double(%x i64) i64 {
entry:
  %r = add %x, %x
  ret %r
}
func @main() void {
entry:
  %a = add i64 21, i64 0
  %d = call @double(%a)
  print %d
  ret
}
`, TridentConfig())
	// Corruption in %a flows through the call into %r and back to print.
	e := model.walkFrom(instrByName(t, model.prof.Module, "a"), walkUniform)
	if math.Abs(e.output-1) > 1e-9 {
		t.Errorf("interprocedural output prob = %v, want 1", e.output)
	}
	// Corruption in the callee's %r flows back to the caller's print.
	e2 := model.walkFrom(instrByName(t, model.prof.Module, "r"), walkUniform)
	if math.Abs(e2.output-1) > 1e-9 {
		t.Errorf("return-path output prob = %v, want 1", e2.output)
	}
}

// TestWalkDuplicateCallEdgesCountOnce passes one def as the same argument
// at two call sites, which yields two identical def-use edges into the
// callee. The fixpoint counts their contribution once; the expected value
// was recorded with the map-keyed walker this one replaced.
func TestWalkDuplicateCallEdgesCountOnce(t *testing.T) {
	model := profiledModel(t, `
module "dupcall"
func @low(%x i64) void {
entry:
  %r = mul %x, i64 3
  %m = and %r, i64 1
  print %m
  ret
}
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %a = add %i, i64 5
  call @low(%a)
  call @low(%a)
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 4
  condbr %c, loop, done
done:
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "a"), walkUniform)
	if want := 0.0302734375; e.output != want {
		t.Errorf("output prob = %v, want %v (duplicate edges counted once)", e.output, want)
	}
}

func TestWalkConditionalConsumerWeighting(t *testing.T) {
	// The print executes in 4 of 16 iterations; corruption of a value
	// computed every iteration reaches output with probability ~0.25
	// (the NULL-node weighting of §IV-E).
	model := profiledModel(t, `
module "cond"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, join]
  %v = mul %i, i64 5
  %m = and %i, i64 3
  %c = icmp eq %m, i64 0
  condbr %c, emit, join
emit:
  print %v
  br join
join:
  %inc = add %i, i64 1
  %lc = icmp slt %inc, i64 16
  condbr %lc, loop, done
done:
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "v"), walkUniform)
	if math.Abs(e.output-0.25) > 1e-9 {
		t.Errorf("output prob = %v, want 0.25 (print executes 1/4 of the time)", e.output)
	}
}

func TestWalkNeverExecutedInstr(t *testing.T) {
	model := profiledModel(t, `
module "dead"
global @g i64 x 1 = [0]
func @main() void {
entry:
  %v = load i64, @g
  %c = icmp sgt %v, i64 10
  condbr %c, cold, done
cold:
  %x = add %v, i64 1
  print %x
  br done
done:
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if e.output != 0 || len(e.branches) != 0 {
		t.Error("never-executed instruction should have empty ends")
	}
}

func TestWalkCaching(t *testing.T) {
	model := profiledModel(t, `
module "cache"
func @main() void {
entry:
  %a = add i64 1, i64 1
  print %a
  ret
}
`, TridentConfig())
	a := instrByName(t, model.prof.Module, "a")
	if model.walkFrom(a, walkUniform) != model.walkFrom(a, walkUniform) {
		t.Error("walks should be cached")
	}
}

// TestFPOutputMask checks what fs makes of a float printed
// with two significant digits: only top-band corruption (for f32 the sign,
// the exponent and 7 mantissa bits, 16 of 32) passes the print, so a
// uniformly random flip of the printed value reaches the output with
// probability 1/2. The paper's closed form for the same masking (§IV-E)
// gives 48.66%; the model does not compute that formula.
func TestFPOutputMask(t *testing.T) {
	for _, c := range []struct {
		print string
		want  float64
	}{{"print g2 %a", 0.5}, {"print %a", 1}} {
		model := profiledModel(t, `
module "g2"
global @g f32 x 1 = [1069547520]
func @main() void {
entry:
  %a = load f32, @g
  `+c.print+`
  ret
}
`, TridentConfig())
		a := instrByName(t, model.prof.Module, "a")
		if got := model.walkFrom(a, walkUniform).output; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: output share of a random flip = %v, want %v", c.print, got, c.want)
		}
	}
}

// handEdge is one edge of a hand-built def-use graph. Edges with the same
// (from, to, op) share a contribution slot, as duplicate call-argument
// edges do in a compiled graph.
type handEdge struct {
	from, to, op int32
	w            float64
	tr           transition
}

// handModel builds a model over a hand-built graph of non-terminal edges
// with the given node execution counts, ready for fixpoint.
func handModel(counts []float64, edges []handEdge) *Model {
	g := &graph{instrs: make([]*ir.Instr, len(counts)), count: counts}
	g.start = make([]int32, len(counts)+1)
	type key struct{ from, to, op int32 }
	slots := make(map[key]int32)
	for n := range counts {
		for _, he := range edges {
			if int(he.from) != n {
				continue
			}
			eid := int32(len(g.edges))
			slot, dup := slots[key{he.from, he.to, he.op}]
			if !dup {
				slot = eid
				slots[key{he.from, he.to, he.op}] = eid
			}
			g.edges = append(g.edges, cedge{to: he.to, opIdx: he.op, slot: slot, guard: -1, weight: he.w, tr: he.tr, trReady: true})
		}
		g.start[n+1] = int32(len(g.edges))
	}
	g.condense()
	m := &Model{g: g}
	m.scratch.init(len(counts), len(g.edges))
	return m
}

// checkValue compares a fixpoint value against its closed form, relative
// to the expected total.
func checkValue(t *testing.T, what string, got, want bandPair) {
	t.Helper()
	tol := 1e-12 * max(1, want.total())
	for band := range got {
		if math.Abs(got[band]-want[band]) > tol {
			t.Errorf("%s = %v, want %v", what, got, want)
			return
		}
	}
}

// scaled returns p·f.
func scaled(p bandPair, f float64) bandPair {
	for band := range p {
		p[band] *= f
	}
	return p
}

// TestFixpointTwoNodeLoop: a loop a→b→a of gain ρ = 0.9·0.5 seeded at a
// reaches s/(1−ρ) at a; the at-least-once reach is held at 1 there.
func TestFixpointTwoNodeLoop(t *testing.T) {
	m := handModel([]float64{100, 100}, []handEdge{
		{from: 0, to: 1, w: 0.9, tr: diagonal(1)},
		{from: 1, to: 0, w: 0.5, tr: diagonal(1)},
	})
	if len(m.g.cyclic) != 1 || !m.g.cyclic[0] {
		t.Fatalf("components %v, want one cyclic component", m.g.cyclic)
	}
	seed := bandPair{0.25, 0.75, 0}
	m.fixpoint(0, seed, nil)
	s := &m.scratch
	a := 1 / (1 - 0.9*0.5)
	checkValue(t, "reach[a]", s.reach[0], scaled(seed, a))
	checkValue(t, "reach[b]", s.reach[1], scaled(seed, 0.9*a))
	checkValue(t, "once[a]", s.once[0], seed)
	checkValue(t, "once[b]", s.once[1], scaled(seed, 0.9))
	if m.work.pops != 0 {
		t.Errorf("fallback pops = %d, want a direct solve", m.work.pops)
	}
}

// TestFixpointSelfLoop: a singleton with a self-loop is a cyclic
// component; its geometric series is summed exactly, and its consumers
// see the limit.
func TestFixpointSelfLoop(t *testing.T) {
	m := handModel([]float64{10, 10}, []handEdge{
		{from: 0, to: 0, w: 0.75, tr: diagonal(1)},
		{from: 0, to: 1, w: 1, tr: diagonal(0.5)},
	})
	if !m.g.cyclic[m.g.comp[0]] || m.g.cyclic[m.g.comp[1]] {
		t.Fatalf("cyclic = %v, want only the self-loop cyclic", m.g.cyclic)
	}
	if m.g.comp[0] >= m.g.comp[1] {
		t.Errorf("components not in topological order: %v", m.g.comp)
	}
	m.fixpoint(0, bandPair{1, 0, 0}, nil)
	checkValue(t, "reach[a]", m.scratch.reach[0], bandPair{4, 0, 0})
	checkValue(t, "reach[c]", m.scratch.reach[1], bandPair{2, 0, 0})
}

// TestFixpointNestedLoopAtExecCount builds bfs-parboil's nested-loop
// shape: outer phi p (65 executions) and latch o (64), inner phi r (240)
// and body t (176), with profiled consumption weights. The flow is
// conserved, so every limit equals ExecCount exactly and the capped set
// flips on rounding alone. The solve must settle at once, without the
// fallback.
func TestFixpointNestedLoopAtExecCount(t *testing.T) {
	const p, r, tb, o = 0, 1, 2, 3
	counts := []float64{65, 240, 176, 64}
	m := handModel(counts, []handEdge{
		{from: p, to: r, w: 64.0 / 65, tr: diagonal(1)},
		{from: r, to: tb, w: 176.0 / 240, tr: diagonal(1)},
		{from: tb, to: r, w: 1, tr: diagonal(1)},
		{from: r, to: o, w: 64.0 / 240, tr: diagonal(1)},
		{from: o, to: p, w: 1, tr: diagonal(1)},
	})
	seed := bandPair{0.5, 0.5, 0}
	m.fixpoint(p, seed, nil)
	for n, c := range counts {
		checkValue(t, "reach", m.scratch.reach[n], scaled(seed, c))
	}
	if m.work.pops != 0 || m.work.rounds > 4 {
		t.Errorf("work %+v, want at most two rounds per quantity and no fallback", m.work)
	}
}

// TestFixpointOnceCappedThroughIdentity: a loop whose at-least-once reach
// would exceed 1 holds at 1 with the seed's band mix, while reach sums the
// series and a consumer of weight 2 takes min(w, 1) for once.
func TestFixpointOnceCappedThroughIdentity(t *testing.T) {
	m := handModel([]float64{100, 100, 100}, []handEdge{
		{from: 0, to: 1, w: 1, tr: diagonal(1)},
		{from: 1, to: 0, w: 0.9, tr: diagonal(1)},
		{from: 0, to: 2, w: 2, tr: diagonal(1)},
	})
	seed := bandPair{0.25, 0.75, 0}
	m.fixpoint(0, seed, nil)
	s := &m.scratch
	checkValue(t, "reach[a]", s.reach[0], scaled(seed, 10))
	checkValue(t, "reach[b]", s.reach[1], scaled(seed, 10))
	checkValue(t, "reach[c]", s.reach[2], scaled(seed, 20))
	for n := range 3 {
		checkValue(t, "once", s.once[n], seed)
	}
}

// TestFixpointBandMixingCapTakesFallback builds puremd's shape: a 2-node
// loop held at ExecCount whose transition mixes bands. Its exact fixed
// point differs from the limit of the worklist update, which never takes
// back a contribution, so the component falls back to that update and
// must agree with the iterative oracle.
func TestFixpointBandMixingCapTakesFallback(t *testing.T) {
	mix := transition{{0.9455555555555556, 0.0011111111111111111, 0}, {0.010526315789473684, 0.9421052631578948, 0}, {0, 0, 0.975}}
	build := func() *Model {
		return handModel([]float64{100, 21, 20}, []handEdge{
			{from: 0, to: 2, w: 20, tr: diagonal(1)},
			{from: 1, to: 2, w: 20.0 / 21, tr: mix},
			{from: 2, to: 1, w: 1, tr: diagonal(1)},
		})
	}
	seed := bandPair{0.3, 0.7, 0}
	m := build()
	m.fixpoint(0, seed, nil)
	if m.work.pops == 0 {
		t.Fatal("band-mixing capped loop was solved directly, want the fallback")
	}
	oracle := build()
	oracle.iterativeFixpoint(0, seed, nil, 1e-12)
	for n := range 3 {
		got, want := m.scratch.reach[n], oracle.scratch.reach[n]
		for band := range got {
			if math.Abs(got[band]-want[band]) > 1e-7 {
				t.Errorf("reach[%d] = %v, iterative limit %v", n, got, want)
				break
			}
		}
	}
}

// TestFixpointDuplicateSlotInCycle: two edges sharing one contribution
// slot inside a loop count once, as in the compiled graph.
func TestFixpointDuplicateSlotInCycle(t *testing.T) {
	loop := []handEdge{
		{from: 0, to: 1, op: 0, w: 0.8, tr: diagonal(1)},
		{from: 1, to: 0, op: 0, w: 0.5, tr: diagonal(0.75)},
	}
	single := handModel([]float64{100, 100}, loop)
	double := handModel([]float64{100, 100}, append(loop, handEdge{from: 0, to: 1, op: 0, w: 0.8, tr: diagonal(1)}))
	seed := bandPair{1, 0, 0}
	single.fixpoint(0, seed, nil)
	double.fixpoint(0, seed, nil)
	a := 1 / (1 - 0.8*0.5*0.75)
	for n, want := range []bandPair{{a, 0, 0}, {0.8 * a, 0, 0}} {
		checkValue(t, "reach", single.scratch.reach[n], want)
		checkValue(t, "reach with duplicate edge", double.scratch.reach[n], want)
	}
}

// TestFixpointGainAboveOneBoundByCap: a self-loop of weight 2 has no
// finite uncapped limit, so only ExecCount bounds reach (and 1 bounds
// once, whose weight min(2, 1) makes the loop singular).
func TestFixpointGainAboveOneBoundByCap(t *testing.T) {
	m := handModel([]float64{50, 1000}, []handEdge{
		{from: 0, to: 0, w: 2, tr: diagonal(1)},
		{from: 0, to: 1, w: 1, tr: diagonal(1)},
	})
	seed := bandPair{0.5, 0.5, 0}
	m.fixpoint(0, seed, nil)
	s := &m.scratch
	checkValue(t, "reach[a]", s.reach[0], scaled(seed, 50))
	checkValue(t, "reach[c]", s.reach[1], scaled(seed, 50))
	checkValue(t, "once[a]", s.once[0], seed)
	checkValue(t, "once[c]", s.once[1], seed)
}
