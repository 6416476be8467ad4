package profile

import (
	"math"
	"testing"

	"trident/internal/ir"
)

// twoLoops is the paper's running example shape (Fig. 4): a first loop
// stores an array, a second loop loads it and conditionally prints.
const twoLoops = `
module "twoloops"
global @arr i32 x 16
func @main() void {
entry:
  br wloop
wloop:
  %i = phi i32 [i32 0, entry], [%inc, wloop]
  %v = mul %i, i32 3
  %p = gep i32, @arr, %i
  store %v, %p
  %inc = add %i, i32 1
  %c = icmp slt %inc, i32 16
  condbr %c, wloop, rentry
rentry:
  br rloop
rloop:
  %j = phi i32 [i32 0, rentry], [%jinc, rjoin]
  %q = gep i32, @arr, %j
  %x = load i32, %q
  %big = icmp sgt %x, i32 20
  condbr %big, emit, rjoin
emit:
  print %x
  br rjoin
rjoin:
  %jinc = add %j, i32 1
  %jc = icmp slt %jinc, i32 16
  condbr %jc, rloop, done
done:
  ret
}
`

func collect(t testing.TB, src string) *Profile {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Collect(m, Options{})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return p
}

func findInstr(t testing.TB, p *Profile, fn, block string, op ir.Opcode) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	for _, in := range p.Module.Func(fn).Block(block).Instrs {
		if in.Op == op {
			found = in
			break
		}
	}
	if found == nil {
		t.Fatalf("no %s in %s:%s", op, fn, block)
	}
	return found
}

func TestExecCounts(t *testing.T) {
	p := collect(t, twoLoops)
	store := findInstr(t, p, "main", "wloop", ir.OpStore)
	load := findInstr(t, p, "main", "rloop", ir.OpLoad)
	if p.ExecCount[store] != 16 {
		t.Errorf("store count = %d, want 16", p.ExecCount[store])
	}
	if p.ExecCount[load] != 16 {
		t.Errorf("load count = %d, want 16", p.ExecCount[load])
	}
	print := findInstr(t, p, "main", "emit", ir.OpPrint)
	// x = 3j > 20 for j in 7..15 -> 9 prints.
	if p.ExecCount[print] != 9 {
		t.Errorf("print count = %d, want 9", p.ExecCount[print])
	}
}

func TestBranchProbabilities(t *testing.T) {
	p := collect(t, twoLoops)
	wbr := p.Module.Func("main").Block("wloop").Terminator()
	pt, ok := p.BranchProb(wbr)
	if !ok {
		t.Fatal("write-loop branch not profiled")
	}
	// 16 executions, 15 take the back edge (true).
	if math.Abs(pt-15.0/16) > 1e-12 {
		t.Errorf("wloop branch prob = %v, want 15/16", pt)
	}

	bigBr := p.Module.Func("main").Block("rloop").Terminator()
	pt, ok = p.BranchProb(bigBr)
	if !ok {
		t.Fatal("emit branch not profiled")
	}
	if math.Abs(pt-9.0/16) > 1e-12 {
		t.Errorf("emit branch prob = %v, want 9/16", pt)
	}
}

func TestEdgeProb(t *testing.T) {
	p := collect(t, twoLoops)
	rloop := p.Module.Func("main").Block("rloop")
	pTrue := p.EdgeProb(rloop, 0)
	pFalse := p.EdgeProb(rloop, 1)
	if math.Abs(pTrue+pFalse-1) > 1e-12 {
		t.Errorf("edge probs do not sum to 1: %v + %v", pTrue, pFalse)
	}
	// Unconditional block reports 1.
	entry := p.Module.Func("main").Block("entry")
	if p.EdgeProb(entry, 0) != 1 {
		t.Error("unconditional edge prob should be 1")
	}
}

func TestMemGraphAggregation(t *testing.T) {
	p := collect(t, twoLoops)
	store := findInstr(t, p, "main", "wloop", ir.OpStore)
	load := findInstr(t, p, "main", "rloop", ir.OpLoad)

	edges := p.MemGraph[store]
	if len(edges) != 1 {
		t.Fatalf("store has %d edges, want 1 (aggregated)", len(edges))
	}
	e := edges[0]
	if e.Load != load {
		t.Error("edge load mismatch")
	}
	if e.DynDeps != 16 {
		t.Errorf("edge DynDeps = %d, want 16", e.DynDeps)
	}
	if e.DistinctStores != 16 {
		t.Errorf("edge DistinctStores = %d, want 16", e.DistinctStores)
	}
	if got := p.StoreReadProb(e); got != 1 {
		t.Errorf("StoreReadProb = %v, want 1 (every store read once)", got)
	}
	if p.DynMemDeps != 16 {
		t.Errorf("DynMemDeps = %d, want 16", p.DynMemDeps)
	}
	// 16 dynamic deps folded into 1 static edge: pruning 15/16.
	if math.Abs(p.PruningRatio()-15.0/16) > 1e-12 {
		t.Errorf("pruning ratio = %v, want 15/16", p.PruningRatio())
	}
	if p.NumStaticMemEdges() != 1 {
		t.Errorf("static edges = %d", p.NumStaticMemEdges())
	}
}

func TestCrashSensitivity(t *testing.T) {
	p := collect(t, twoLoops)
	load := findInstr(t, p, "main", "rloop", ir.OpLoad)
	s := p.CrashProb(load)
	// Most of the 64 address bits point far outside the small footprint.
	if s < 0.5 || s > 1 {
		t.Errorf("crash sensitivity = %v, want in [0.5, 1]", s)
	}
	// The footprint fallback is also high for a small program.
	if f := p.FootprintCrashProb(); f < 0.5 || f > 1 {
		t.Errorf("footprint crash prob = %v", f)
	}
}

func TestSamplesCollected(t *testing.T) {
	p := collect(t, twoLoops)
	cmp := findInstr(t, p, "main", "rloop", ir.OpICmp)
	samples := p.Samples[cmp]
	if len(samples) == 0 {
		t.Fatal("no operand samples for comparison")
	}
	if len(samples) > reservoirSize {
		t.Errorf("sample reservoir overflowed: %d", len(samples))
	}
	// RHS of "%x > 20" is always the constant 20.
	for _, s := range samples {
		if s.RHS != 20 {
			t.Errorf("sample RHS = %d, want 20", s.RHS)
		}
	}
}

func TestReservoirBounded(t *testing.T) {
	m, err := ir.Parse(`
module "many"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 10000
  condbr %c, loop, done
done:
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Collect(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmp := findInstr(t, p, "main", "loop", ir.OpICmp)
	if len(p.Samples[cmp]) != 64 {
		t.Errorf("reservoir size = %d, want 64", len(p.Samples[cmp]))
	}
	if p.ExecCount[cmp] != 10000 {
		t.Errorf("cmp count = %d", p.ExecCount[cmp])
	}
}

func TestProfileDeterminism(t *testing.T) {
	p1 := collect(t, twoLoops)
	p2 := collect(t, twoLoops)
	if p1.TotalDynResults != p2.TotalDynResults {
		t.Error("dynamic result counts differ between runs")
	}
	if p1.PruningRatio() != p2.PruningRatio() {
		t.Error("pruning ratios differ between runs")
	}
	s1 := findInstr(t, p1, "main", "rloop", ir.OpICmp)
	s2 := findInstr(t, p2, "main", "rloop", ir.OpICmp)
	a, b := p1.Samples[s1], p2.Samples[s2]
	if len(a) != len(b) {
		t.Fatal("sample counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("samples differ between identical runs")
		}
	}
}

func TestCollectRejectsCrashingProgram(t *testing.T) {
	m, err := ir.Parse(`
module "crash"
global @a i32 x 1
func @main() void {
entry:
  %p = gep i32, @a, i32 99
  %v = load i32, %p
  print %v
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(m, Options{}); err == nil {
		t.Error("Collect should reject a crashing golden run")
	}
}

func TestGoldenCaptured(t *testing.T) {
	p := collect(t, twoLoops)
	if p.Golden == nil || p.Golden.OutputLines != 9 {
		t.Errorf("golden output lines = %+v", p.Golden)
	}
	if p.TotalDynResults == 0 || p.PeakMemBytes == 0 {
		t.Error("profile missing totals")
	}
}
