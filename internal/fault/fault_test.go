package fault

import (
	"context"
	"reflect"
	"testing"

	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/progs"
)

// vulnerable computes a value that flows straight to output: most faults
// in it are SDCs.
const vulnerable = `
module "vulnerable"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %acc = phi i64 [i64 0, entry], [%sum, loop]
  %sq = mul %i, %i
  %sum = add %acc, %sq
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 32
  condbr %c, loop, done
done:
  print %sum
  ret
}
`

// masked computes values that are mostly masked before output.
const masked = `
module "masked"
func @main() void {
entry:
  %x = add i64 12345, i64 0
  %m = and %x, i64 1
  print %m
  ret
}
`

func newInjector(t testing.TB, src string, seed uint64) *Injector {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	inj, err := New(m, Options{Seed: seed})
	if err != nil {
		t.Fatalf("new injector: %v", err)
	}
	return inj
}

func TestGoldenRunCaptured(t *testing.T) {
	inj := newInjector(t, vulnerable, 1)
	// sum of squares 0..31 = 10416.
	if inj.GoldenOutput() != "10416\n" {
		t.Errorf("golden output = %q", inj.GoldenOutput())
	}
	if inj.ActivationSpace() == 0 || inj.GoldenDynInstrs() == 0 {
		t.Error("activation space or dyn count empty")
	}
	if len(inj.Targets()) == 0 {
		t.Error("no targets")
	}
	for _, target := range inj.Targets() {
		if !target.HasResult() {
			t.Errorf("non register-writing target %s", target.Pos())
		}
		if inj.ExecCount(target) == 0 {
			t.Errorf("target %s has zero count", target.Pos())
		}
	}
}

func TestInjectHighBitOfPrintedValueIsSDC(t *testing.T) {
	inj := newInjector(t, vulnerable, 1)
	// Find %sum in block loop (the accumulator feeding print).
	var sum *ir.Instr
	for _, in := range inj.module.Func("main").Block("loop").Instrs {
		if in.Name == "sum" {
			sum = in
		}
	}
	if sum == nil {
		t.Fatal("sum register not found")
	}
	// Corrupt the last dynamic instance (instance 32) at a high bit: the
	// corrupted value is printed directly.
	out, err := inj.Inject(context.Background(), sum, 32, 40)
	if err != nil {
		t.Fatal(err)
	}
	if out != SDC {
		t.Errorf("outcome = %v, want sdc", out)
	}
}

func TestInjectMaskedBitIsBenign(t *testing.T) {
	inj := newInjector(t, masked, 1)
	var x *ir.Instr
	for _, in := range inj.module.Func("main").Block("entry").Instrs {
		if in.Name == "x" {
			x = in
		}
	}
	// Bit 5 of %x is discarded by the and with 1.
	out, err := inj.Inject(context.Background(), x, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out != Benign {
		t.Errorf("outcome = %v, want benign", out)
	}
	// Bit 0 changes the printed value.
	out, err = inj.Inject(context.Background(), x, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != SDC {
		t.Errorf("outcome = %v, want sdc", out)
	}
}

func TestInjectAddressBitCrashes(t *testing.T) {
	inj := newInjector(t, `
module "addr"
global @a i64 x 4 = [7]
func @main() void {
entry:
  %p = gep i64, @a, i64 0
  %v = load i64, %p
  print %v
  ret
}
`, 1)
	var gep *ir.Instr
	for _, in := range inj.module.Func("main").Block("entry").Instrs {
		if in.Op == ir.OpGep {
			gep = in
		}
	}
	// Flipping a high address bit lands far outside every segment.
	out, err := inj.Inject(context.Background(), gep, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if out != Crash {
		t.Errorf("outcome = %v, want crash", out)
	}
}

func TestInjectLoopBoundCanHang(t *testing.T) {
	inj := newInjector(t, `
module "hangable"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 4
  condbr %c, loop, done
done:
  print %inc
  ret
}
`, 1)
	// Corrupt a high bit of %inc on the last iteration: i jumps far below
	// the bound... choose bit 62 so the loop runs a very long time (or
	// wraps); either hang or SDC is possible, but never benign.
	var inc *ir.Instr
	for _, in := range inj.module.Func("main").Block("loop").Instrs {
		if in.Name == "inc" {
			inc = in
		}
	}
	out, err := inj.Inject(context.Background(), inc, 2, 62)
	if err != nil {
		t.Fatal(err)
	}
	if out == Benign {
		t.Errorf("outcome = %v, want non-benign", out)
	}
}

func TestCheckDetection(t *testing.T) {
	inj := newInjector(t, `
module "protected"
func @main() void {
entry:
  %a = add i64 20, i64 22
  %shadow = add i64 20, i64 22
  check %a, %shadow
  print %a
  ret
}
`, 1)
	var a *ir.Instr
	for _, in := range inj.module.Func("main").Block("entry").Instrs {
		if in.Name == "a" {
			a = in
		}
	}
	out, err := inj.Inject(context.Background(), a, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	if out != Detected {
		t.Errorf("outcome = %v, want detected", out)
	}
}

func TestCampaignRandomDeterministic(t *testing.T) {
	a, err := newInjector(t, vulnerable, 42).CampaignRandom(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInjector(t, vulnerable, 42).CampaignRandom(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 50 || b.N() != 50 {
		t.Fatalf("trial counts %d, %d", a.N(), b.N())
	}
	sameTrial := func(x, y Injection) bool {
		return x.Instr.ID == y.Instr.ID && x.Instance == y.Instance &&
			x.Bit == y.Bit && x.Outcome == y.Outcome
	}
	for i := range a.Trials {
		if !sameTrial(a.Trials[i], b.Trials[i]) {
			t.Fatalf("trial %d differs between same-seed campaigns", i)
		}
	}
	// Different seeds should (almost surely) sample differently.
	c, err := newInjector(t, vulnerable, 43).CampaignRandom(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Trials {
		if sameTrial(a.Trials[i], c.Trials[i]) {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestCampaignAccounting(t *testing.T) {
	res, err := newInjector(t, vulnerable, 7).CampaignRandom(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 200 {
		t.Errorf("outcome counts sum to %d, want 200", total)
	}
	sum := res.Rate(Benign) + res.Rate(SDC) + res.Rate(Crash) + res.Rate(Hang) + res.Rate(Detected)
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("rates sum to %v", sum)
	}
	if res.SDCProb() < 0 || res.SDCProb() > 1 {
		t.Errorf("SDC prob = %v", res.SDCProb())
	}
	if res.ErrorBar95() < 0 || res.ErrorBar95() > 0.5 {
		t.Errorf("error bar = %v", res.ErrorBar95())
	}
}

func TestCampaignPerInstr(t *testing.T) {
	inj := newInjector(t, vulnerable, 7)
	var sum *ir.Instr
	for _, in := range inj.module.Func("main").Block("loop").Instrs {
		if in.Name == "sum" {
			sum = in
		}
	}
	res, err := inj.CampaignPerInstr(context.Background(), sum, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 60 {
		t.Fatalf("N = %d", res.N())
	}
	// The accumulator feeds output: a majority of bit flips are SDCs
	// (early-instance faults always survive into the final sum).
	if res.SDCProb() < 0.5 {
		t.Errorf("per-instruction SDC prob = %v, want > 0.5", res.SDCProb())
	}
	for _, tr := range res.Trials {
		if tr.Instr != sum {
			t.Error("trial hit wrong instruction")
		}
		if tr.Instance == 0 || tr.Instance > 32 {
			t.Errorf("instance %d out of range", tr.Instance)
		}
	}
}

func TestCampaignPerInstrRejectsNonTarget(t *testing.T) {
	inj := newInjector(t, vulnerable, 7)
	var print *ir.Instr
	inj.module.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpPrint {
			print = in
		}
	})
	if _, err := inj.CampaignPerInstr(context.Background(), print, 5); err == nil {
		t.Error("print should not be injectable (no destination register)")
	}
}

func TestPerInstrSDCMap(t *testing.T) {
	inj := newInjector(t, masked, 3)
	targets := inj.Targets()
	m, err := inj.PerInstrSDC(context.Background(), targets, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(targets) {
		t.Fatalf("map size %d, want %d", len(m), len(targets))
	}
	// %m (the and result) feeds print directly; its low bit always matters.
	// %x is mostly masked. So SDC(%x) < SDC(%m).
	var x, and *ir.Instr
	for _, in := range targets {
		switch in.Name {
		case "x":
			x = in
		case "m":
			and = in
		}
	}
	if m[x] >= m[and] {
		t.Errorf("masked instruction %v should have lower SDC than direct %v", m[x], m[and])
	}
}

func TestInjectErrors(t *testing.T) {
	inj := newInjector(t, masked, 3)
	var x *ir.Instr
	inj.module.Instrs(func(in *ir.Instr) {
		if in.Name == "x" {
			x = in
		}
	})
	if _, err := inj.Inject(context.Background(), x, 0, 0); err == nil {
		t.Error("instance 0 should error")
	}
	if _, err := inj.Inject(context.Background(), x, 99, 0); err == nil {
		t.Error("never-reached instance should error")
	}
}

func TestNewRejectsCrashingGolden(t *testing.T) {
	m, err := ir.Parse(`
module "bad"
global @a i32 x 1
func @main() void {
entry:
  %p = gep i32, @a, i32 5
  %v = load i32, %p
  print %v
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, Options{}); err == nil {
		t.Error("New should reject a crashing golden run")
	}
}

func TestCrashLatencyMeasured(t *testing.T) {
	// The corrupted index is used by a gep two instructions later, so a
	// crash follows the injection within a handful of instructions.
	inj := newInjector(t, `
module "lat"
global @a i64 x 4 = [1, 2, 3, 4]
func @main() void {
entry:
  %i = add i64 2, i64 0
  %p = gep i64, @a, %i
  %v = load i64, %p
  print %v
  ret
}
`, 1)
	var i *ir.Instr
	inj.module.Instrs(func(in *ir.Instr) {
		if in.Name == "i" {
			i = in
		}
	})
	d, err := inj.InjectDetail(context.Background(), i, 1, 55)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Crash {
		t.Fatalf("outcome = %v, want crash", d.Outcome)
	}
	if d.CrashLatency == 0 || d.CrashLatency > 5 {
		t.Errorf("crash latency = %d, want small nonzero", d.CrashLatency)
	}
}

func TestMeanCrashLatency(t *testing.T) {
	res, err := newInjector(t, vulnerable, 3).CampaignRandom(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[Crash] > 0 && res.MeanCrashLatency() <= 0 {
		t.Error("campaign with crashes should report positive mean latency")
	}
	empty := &CampaignResult{}
	if empty.MeanCrashLatency() != 0 {
		t.Error("empty campaign latency should be 0")
	}
}

// TestGoldenPassMatchesCapturePass: the snapshots and per-target counts
// New takes from its one golden pass equal those of a separate capture
// pass at the same interval that tallies each target in a map, on every
// paper kernel. An interval too small for maxSnapshots snapshots is
// raised to goldenDyn/maxSnapshots rounded up, as that pass raises it,
// and the raised interval holds the injector to maxSnapshots.
func TestGoldenPassMatchesCapturePass(t *testing.T) {
	for _, p := range progs.All() {
		m := p.Build()
		for _, interval := range []int{DefaultSnapshotInterval, 1} {
			inj, err := New(m, Options{SnapshotInterval: interval})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			var snaps []*interp.Snapshot
			seen := map[*ir.Instr]uint64{}
			counts := map[*ir.Instr][]uint64{}
			_, err = interp.Run(m, interp.Options{
				SnapshotInterval: max(uint64(interval), (inj.GoldenDynInstrs()+maxSnapshots-1)/maxSnapshots),
				OnSnapshot: func(s *interp.Snapshot) {
					snaps = append(snaps, s)
					for _, in := range inj.targets {
						counts[in] = append(counts[in], seen[in])
					}
				},
				Hooks: interp.Hooks{OnResult: func(_ *interp.Context, in *ir.Instr, bits uint64) uint64 {
					seen[in]++
					return bits
				}},
			})
			if err != nil {
				t.Fatalf("%s: capture pass: %v", p.Name, err)
			}
			if inj.Snapshots() > maxSnapshots {
				t.Fatalf("%s at %d: %d snapshots, cap %d", p.Name, interval, inj.Snapshots(), maxSnapshots)
			}
			if len(inj.snaps) == 0 || len(inj.snaps) != len(snaps) {
				t.Fatalf("%s at %d: %d snapshots, capture pass %d", p.Name, interval, len(inj.snaps), len(snaps))
			}
			for i, s := range inj.snaps {
				if s.DynInstrs() != snaps[i].DynInstrs() {
					t.Fatalf("%s at %d: snapshot %d at %d, capture pass at %d",
						p.Name, interval, i, s.DynInstrs(), snaps[i].DynInstrs())
				}
			}
			if !reflect.DeepEqual(inj.counts, counts) {
				t.Errorf("%s at %d: per-target counts differ from the capture pass", p.Name, interval)
			}
		}
	}
}
