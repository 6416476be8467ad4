package core

import (
	"math"
	"testing"

	"trident/internal/ir"
)

// fig4Fixed reproduces the paper's Figure 4: a first loop stores an array,
// a second loop loads each element and prints it only when a
// data-dependent condition holds (60% of iterations). The paper derives
// fm(store) = 0.6.
const fig4Fixed = `
module "fig4"
global @arr i64 x 10
func @main() void {
entry:
  br wloop
wloop:
  %i = phi i64 [i64 0, entry], [%inc, wloop]
  %p = gep i64, @arr, %i
  store %i, %p
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 10
  condbr %c, wloop, rentry
rentry:
  br rloop
rloop:
  %j = phi i64 [i64 0, rentry], [%jinc, rjoin]
  %q = gep i64, @arr, %j
  %x = load i64, %q
  %m = srem %x, i64 10
  %cc = icmp slt %m, i64 6
  condbr %cc, emit, rjoin
emit:
  print %x
  br rjoin
rjoin:
  %jinc = add %j, i64 1
  %jc = icmp slt %jinc, i64 10
  condbr %jc, rloop, done
done:
  ret
}
`

func TestFMPaperFig4(t *testing.T) {
	model := profiledModel(t, fig4Fixed, TridentConfig())
	store := instrByOp(t, model.prof.Module, "wloop", ir.OpStore)
	got := model.memOut(store, bandTop)
	// Elements 0..9: printed when (x mod 10) < 6, i.e. 6 of 10. The load
	// feeds print directly; the emit branch guards it.
	if math.Abs(got-0.6) > 0.05 {
		t.Errorf("fm(store) = %v, want ~0.6 (paper Fig. 4)", got)
	}
}

func TestFMStoreNeverRead(t *testing.T) {
	model := profiledModel(t, `
module "deadstore"
global @a i64 x 2
func @main() void {
entry:
  %p = gep i64, @a, i64 0
  store i64 5, %p
  %q = gep i64, @a, i64 1
  %v = load i64, %q
  print %v
  ret
}
`, TridentConfig())
	store := instrByOp(t, model.prof.Module, "entry", ir.OpStore)
	if got := model.memOut(store, bandTop); got != 0 {
		t.Errorf("fm(unread store) = %v, want 0", got)
	}
}

func TestFMChainedStores(t *testing.T) {
	// store a -> load -> store b -> load -> print: fm(first store) = 1.
	model := profiledModel(t, `
module "chain"
global @a i64 x 1
global @b i64 x 1
func @main() void {
entry:
  store i64 9, @a
  %v = load i64, @a
  %w = add %v, i64 1
  store %w, @b
  %u = load i64, @b
  print %u
  ret
}
`, TridentConfig())
	var stores []*ir.Instr
	model.prof.Module.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			stores = append(stores, in)
		}
	})
	if len(stores) != 2 {
		t.Fatal("want 2 stores")
	}
	for i, s := range stores {
		if got := model.memOut(s, bandTop); math.Abs(got-1) > 1e-9 {
			t.Errorf("fm(store %d) = %v, want 1", i, got)
		}
	}
}

// memAcc is a memory accumulator: load, add, store back, every
// iteration; the final value prints. Its fm system is cyclic.
const memAcc = `
module "memacc"
global @acc i64 x 1
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %v = load i64, @acc
  %nv = add %v, %i
  store %nv, @acc
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 16
  condbr %c, loop, done
done:
  %f = load i64, @acc
  print %f
  ret
}
`

func TestFMCyclicDependence(t *testing.T) {
	// Corruption persists through the accumulator: fm(store) should be 1.
	model := profiledModel(t, memAcc, TridentConfig())
	store := instrByOp(t, model.prof.Module, "loop", ir.OpStore)
	got := model.memOut(store, bandTop)
	if math.Abs(got-1) > 0.01 {
		t.Errorf("fm(accumulator store) = %v, want ~1", got)
	}
	if model.FMIterations() < 2 {
		t.Errorf("cyclic system should need >1 sweep, got %d", model.FMIterations())
	}
}

// TestFMIterationsCountsSweepsRun pins FMIterations to the number of
// sweeps actually run. The accumulator's cyclic system creeps toward 1
// and does not converge within any small cap, so a capped solve must
// report the cap itself; the acyclic Fig. 4 system converges, and its
// count must not move when the cap is raised past it.
func TestFMIterationsCountsSweepsRun(t *testing.T) {
	for _, cap := range []int{1, 2, 5} {
		cfg := TridentConfig()
		cfg.FMMaxIters = cap
		if got := profiledModel(t, memAcc, cfg).FMIterations(); got != cap {
			t.Errorf("memacc, FMMaxIters %d: FMIterations() = %d, want %d", cap, got, cap)
		}
	}

	converged := profiledModel(t, fig4Fixed, TridentConfig()).FMIterations()
	if converged < 2 || converged > 10 {
		t.Fatalf("fig4: FMIterations() = %d, want a small converged count", converged)
	}
	for _, cap := range []int{converged, converged + 3} {
		cfg := TridentConfig()
		cfg.FMMaxIters = cap
		if got := profiledModel(t, fig4Fixed, cfg).FMIterations(); got != converged {
			t.Errorf("fig4, FMMaxIters %d: FMIterations() = %d, want %d", cap, got, converged)
		}
	}
}

func TestFMPartialOverwrite(t *testing.T) {
	// The second loop overwrites half the elements before the read loop,
	// so only half the first loop's stores survive to be read.
	model := profiledModel(t, `
module "overwrite"
global @a i64 x 8
func @main() void {
entry:
  br w1
w1:
  %i = phi i64 [i64 0, entry], [%inc, w1]
  %p = gep i64, @a, %i
  store %i, %p
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 8
  condbr %c, w1, w2entry
w2entry:
  br w2
w2:
  %j = phi i64 [i64 0, w2entry], [%jinc, w2]
  %q = gep i64, @a, %j
  store i64 0, %q
  %jinc = add %j, i64 2
  %jc = icmp slt %jinc, i64 8
  condbr %jc, w2, rentry
rentry:
  br r
r:
  %k = phi i64 [i64 0, rentry], [%kinc, r]
  %s = gep i64, @a, %k
  %v = load i64, %s
  print %v
  %kinc = add %k, i64 1
  %kc = icmp slt %kinc, i64 8
  condbr %kc, r, done
done:
  ret
}
`, TridentConfig())
	store1 := instrByOp(t, model.prof.Module, "w1", ir.OpStore)
	got := model.memOut(store1, bandTop)
	// 4 of 8 first-loop stores are overwritten before the read.
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("fm(overwritten store) = %v, want ~0.5", got)
	}
}
