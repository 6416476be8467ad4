package interp

import (
	"strings"
	"testing"

	"trident/internal/ir"
)

// mustParse parses src and fails the test on error.
func mustParse(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// run executes the module with default options.
func run(t testing.TB, m *ir.Module) *Result {
	t.Helper()
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestRunStraightLine(t *testing.T) {
	m := mustParse(t, `
module "straight"
func @main() void {
entry:
  %a = add i32 2, i32 3
  %b = mul %a, i32 4
  %c = sub %b, i32 1
  print %c
  ret
}
`)
	res := run(t, m)
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Trap)
	}
	if res.Output != "19\n" {
		t.Errorf("output = %q, want 19", res.Output)
	}
	if res.DynInstrs != 5 {
		t.Errorf("DynInstrs = %d, want 5", res.DynInstrs)
	}
	if res.DynResults != 3 {
		t.Errorf("DynResults = %d, want 3", res.DynResults)
	}
}

func TestRunLoopWithPhi(t *testing.T) {
	// Sum 1..10 = 55.
	m := mustParse(t, `
module "sum"
func @main() void {
entry:
  br loop
loop:
  %i = phi i32 [i32 1, entry], [%inc, loop]
  %acc = phi i32 [i32 0, entry], [%sum, loop]
  %sum = add %acc, %i
  %inc = add %i, i32 1
  %c = icmp sle %inc, i32 10
  condbr %c, loop, done
done:
  print %sum
  ret
}
`)
	res := run(t, m)
	if res.Output != "55\n" {
		t.Errorf("output = %q, want 55", res.Output)
	}
}

func TestPhiSimultaneousEvaluation(t *testing.T) {
	// Fibonacci via parallel phi assignment: (a, b) = (b, a+b). If phis
	// evaluated sequentially, the second phi would see the updated a.
	m := mustParse(t, `
module "fib"
func @main() void {
entry:
  br loop
loop:
  %n = phi i32 [i32 0, entry], [%ninc, loop]
  %a = phi i64 [i64 0, entry], [%b, loop]
  %b = phi i64 [i64 1, entry], [%next, loop]
  %next = add %a, %b
  %ninc = add %n, i32 1
  %c = icmp slt %ninc, i32 10
  condbr %c, loop, done
done:
  print %a
  ret
}
`)
	res := run(t, m)
	// After 10 loop entries, %a holds fib(9) = 34. Sequential phi
	// evaluation would instead produce fib-like drift (a == b).
	if res.Output != "34\n" {
		t.Errorf("output = %q, want 34", res.Output)
	}
}

func TestMemoryProgram(t *testing.T) {
	m := mustParse(t, `
module "mem"
global @src i32 x 4 = [10, 20, 30, 40]
func @main() void {
entry:
  %buf = alloca i32 x 4
  br loop
loop:
  %i = phi i32 [i32 0, entry], [%inc, loop]
  %sp = gep i32, @src, %i
  %v = load i32, %sp
  %dv = mul %v, i32 2
  %dp = gep i32, %buf, %i
  store %dv, %dp
  %inc = add %i, i32 1
  %c = icmp slt %inc, i32 4
  condbr %c, loop, out
out:
  %lp = gep i32, %buf, i32 3
  %last = load i32, %lp
  print %last
  ret
}
`)
	res := run(t, m)
	if res.Output != "80\n" {
		t.Errorf("output = %q, want 80", res.Output)
	}
}

func TestFunctionCall(t *testing.T) {
	m := mustParse(t, `
module "call"
func @square(%x i32) i32 {
entry:
  %r = mul %x, %x
  ret %r
}
func @main() void {
entry:
  %a = call @square(i32 7)
  %b = call @square(%a)
  print %b
  ret
}
`)
	res := run(t, m)
	if res.Output != "2401\n" {
		t.Errorf("output = %q, want 2401", res.Output)
	}
}

func TestRecursionWithinLimit(t *testing.T) {
	m := mustParse(t, `
module "fact"
func @fact(%n i64) i64 {
entry:
  %c = icmp sle %n, i64 1
  condbr %c, base, rec
base:
  ret i64 1
rec:
  %n1 = sub %n, i64 1
  %sub = call @fact(%n1)
  %r = mul %n, %sub
  ret %r
}
func @main() void {
entry:
  %f = call @fact(i64 10)
  print %f
  ret
}
`)
	res := run(t, m)
	if res.Output != "3628800\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestStackOverflowTrap(t *testing.T) {
	m := mustParse(t, `
module "inf"
func @f() void {
entry:
  call @f()
  ret
}
func @main() void {
entry:
  call @f()
  ret
}
`)
	res := run(t, m)
	if res.Outcome != OutcomeCrash || res.Trap.Kind != TrapStackOverflow {
		t.Errorf("outcome = %v, trap = %v", res.Outcome, res.Trap)
	}
}

func TestOOBLoadTrap(t *testing.T) {
	m := mustParse(t, `
module "oob"
global @a i32 x 2
func @main() void {
entry:
  %p = gep i32, @a, i32 100
  %v = load i32, %p
  print %v
  ret
}
`)
	res := run(t, m)
	if res.Outcome != OutcomeCrash || res.Trap.Kind != TrapOOBLoad {
		t.Fatalf("outcome = %v, trap = %v", res.Outcome, res.Trap)
	}
	if res.Output != "" {
		t.Error("crashed program should produce no output after the trap")
	}
	if !strings.Contains(res.Trap.Error(), "out-of-bounds load") {
		t.Errorf("trap error = %q", res.Trap.Error())
	}
}

func TestOOBStoreTrap(t *testing.T) {
	m := mustParse(t, `
module "oob"
global @a i32 x 2
func @main() void {
entry:
  %p = gep i32, @a, i32 -5
  store i32 1, %p
  ret
}
`)
	res := run(t, m)
	if res.Outcome != OutcomeCrash || res.Trap.Kind != TrapOOBStore {
		t.Errorf("outcome = %v, trap = %v", res.Outcome, res.Trap)
	}
}

func TestDivZeroTrap(t *testing.T) {
	m := mustParse(t, `
module "div"
func @main() void {
entry:
  %z = sub i32 5, i32 5
  %d = sdiv i32 1, %z
  print %d
  ret
}
`)
	res := run(t, m)
	if res.Outcome != OutcomeCrash || res.Trap.Kind != TrapDivZero {
		t.Errorf("outcome = %v, trap = %v", res.Outcome, res.Trap)
	}
}

func TestHangDetection(t *testing.T) {
	m := mustParse(t, `
module "hang"
func @main() void {
entry:
  br loop
loop:
  br loop
}
`)
	res, err := Run(m, Options{MaxDynInstrs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeHang {
		t.Errorf("outcome = %v, want hang", res.Outcome)
	}
	if res.DynInstrs < 1000 {
		t.Errorf("DynInstrs = %d", res.DynInstrs)
	}
}

func TestDanglingAllocaTraps(t *testing.T) {
	m := mustParse(t, `
module "dangle"
func @leak() ptr {
entry:
  %p = alloca i32 x 1
  store i32 42, %p
  ret %p
}
func @main() void {
entry:
  %p = call @leak()
  %v = load i32, %p
  print %v
  ret
}
`)
	res := run(t, m)
	if res.Outcome != OutcomeCrash || res.Trap.Kind != TrapOOBLoad {
		t.Errorf("dangling access: outcome = %v, trap = %v", res.Outcome, res.Trap)
	}
}

func TestFloatPipeline(t *testing.T) {
	m := mustParse(t, `
module "float"
func @main() void {
entry:
  %x = fadd f64 1.5, f64 2.25
  %y = fmul %x, f64 2.0
  %r = intrinsic sqrt(%y)
  %i = fptosi %r to i64
  print %i
  print %r
  print g2 %y
  ret
}
`)
	res := run(t, m)
	lines := strings.Split(strings.TrimSpace(res.Output), "\n")
	if len(lines) != 3 {
		t.Fatalf("output lines = %v", lines)
	}
	if lines[0] != "2" { // floor(sqrt(7.5)) = 2
		t.Errorf("int line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2.73") {
		t.Errorf("sqrt line = %q", lines[1])
	}
	if lines[2] != "7.5" {
		t.Errorf("g2 line = %q", lines[2])
	}
}

func TestFloat32Arithmetic(t *testing.T) {
	m := mustParse(t, `
module "f32"
func @main() void {
entry:
  %a = fadd f32 0.5, f32 0.25
  %w = fpext %a to f64
  print %w
  ret
}
`)
	res := run(t, m)
	if res.Output != "0.75\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestIntegerOpsViaProgram(t *testing.T) {
	m := mustParse(t, `
module "intops"
func @main() void {
entry:
  %a = and i32 12, i32 10
  print %a
  %o = or i32 12, i32 10
  print %o
  %x = xor i32 12, i32 10
  print %x
  %sl = shl i32 3, i32 4
  print %sl
  %lr = lshr i32 -16, i32 28
  print %lr
  %ar = ashr i32 -16, i32 2
  print %ar
  %sd = sdiv i32 -7, i32 2
  print %sd
  %sr = srem i32 -7, i32 2
  print %sr
  %ud = udiv i32 7, i32 2
  print %ud
  %ur = urem i32 7, i32 2
  print %ur
  %tr = trunc i32 257 to i8
  %trx = sext %tr to i32
  print %trx
  %ze = zext i8 -1 to i32
  print %ze
  %se = select i1 1, i32 111, i32 222
  print %se
  ret
}
`)
	res := run(t, m)
	want := "8\n14\n6\n48\n15\n-4\n-3\n-1\n3\n1\n1\n255\n111\n"
	if res.Output != want {
		t.Errorf("output:\n%s\nwant:\n%s", res.Output, want)
	}
}

func TestComparisonPredicates(t *testing.T) {
	m := mustParse(t, `
module "cmps"
func @main() void {
entry:
  %a = icmp slt i32 -1, i32 1
  print %a
  %b = icmp ult i32 -1, i32 1
  print %b
  %c = icmp eq i64 5, i64 5
  print %c
  %d = fcmp olt f64 1.0, f64 2.0
  print %d
  %e = fcmp oge f64 1.0, f64 2.0
  print %e
  ret
}
`)
	res := run(t, m)
	// I1 prints via sign extension of width 1: 1 -> -1.
	want := "-1\n0\n-1\n-1\n0\n"
	if res.Output != want {
		t.Errorf("output:\n%swant:\n%s", res.Output, want)
	}
}

func TestHookOnResultInjectsFault(t *testing.T) {
	m := mustParse(t, `
module "inj"
func @main() void {
entry:
  %a = add i32 0, i32 0
  print %a
  ret
}
`)
	var target uint64 = 1 // first dynamic result
	res, err := Run(m, Options{Hooks: Hooks{
		OnResult: func(ctx *Context, in *ir.Instr, bits uint64) uint64 {
			if ctx.DynResults == target {
				return bits ^ (1 << 3)
			}
			return bits
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "8\n" {
		t.Errorf("output = %q, want 8 (injected)", res.Output)
	}
}

func TestHookObservations(t *testing.T) {
	m := mustParse(t, `
module "obs"
global @g i32 x 1 = [5]
func @main() void {
entry:
  %v = load i32, @g
  %c = icmp sgt %v, i32 0
  condbr %c, yes, no
yes:
  store i32 1, @g
  br no
no:
  print %v
  ret
}
`)
	var loads, stores, branches, prints int
	var takenEdge int = -1
	_, err := Run(m, Options{Hooks: Hooks{
		OnLoad:   func(*Context, *ir.Instr, uint64, uint64) { loads++ },
		OnStore:  func(*Context, *ir.Instr, uint64, uint64) { stores++ },
		OnBranch: func(_ *Context, _ *ir.Instr, taken int) { branches++; takenEdge = taken },
		OnPrint:  func(*Context, *ir.Instr, string) { prints++ },
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Two branch events: the condbr and the unconditional br in yes.
	if loads != 1 || stores != 1 || branches != 2 || prints != 1 {
		t.Errorf("hooks fired loads=%d stores=%d branches=%d prints=%d",
			loads, stores, branches, prints)
	}
	if takenEdge != 0 {
		t.Errorf("taken edge = %d, want 0 (true)", takenEdge)
	}
}

func TestGlobalInitialization(t *testing.T) {
	m := mustParse(t, `
module "ginit"
global @mix f64 x 3 = [1.5, -2.5]
func @main() void {
entry:
  %p0 = gep f64, @mix, i32 0
  %v0 = load f64, %p0
  print %v0
  %p1 = gep f64, @mix, i32 1
  %v1 = load f64, %p1
  print %v1
  %p2 = gep f64, @mix, i32 2
  %v2 = load f64, %p2
  print %v2
  ret
}
`)
	res := run(t, m)
	if res.Output != "1.5\n-2.5\n0\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestDeterminism(t *testing.T) {
	m := mustParse(t, `
module "det"
global @a i64 x 16
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %h = mul %i, i64 2654435761
  %x = xor %h, %i
  %m = urem %x, i64 16
  %p = gep i64, @a, %m
  store %h, %p
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 64
  condbr %c, loop, out
out:
  %p0 = gep i64, @a, i64 7
  %v = load i64, %p0
  print %v
  ret
}
`)
	first := run(t, m)
	for i := 0; i < 3; i++ {
		again := run(t, m)
		if again.Output != first.Output || again.DynInstrs != first.DynInstrs {
			t.Fatal("execution is not deterministic")
		}
	}
}

func TestRunErrors(t *testing.T) {
	m := ir.NewModule("empty")
	if _, err := Run(m, Options{}); err == nil {
		t.Error("Run should fail without main")
	}
	m2 := ir.NewModule("params")
	f := m2.NewFunc("main", ir.Void, ir.NewParam("x", ir.I32))
	b := ir.NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	b.Ret(nil)
	f.Renumber()
	if _, err := Run(m2, Options{}); err == nil {
		t.Error("Run should fail when main takes parameters")
	}
}
