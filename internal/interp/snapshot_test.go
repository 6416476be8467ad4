package interp

import (
	"fmt"
	"sort"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
)

// snapProgram exercises every state dimension a snapshot must carry:
// nested calls mid-flight at the snapshot point, allocas in several
// frames, phi-carried loop state, global mutation through stores, and
// float output.
const snapProgram = `
module "snapstate"

global @data i64 x 16 = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
global @out i64 x 1

func @inner(%x i64) i64 {
entry:
  %buf = alloca i64 x 4
  %p = gep i64, %buf, i64 0
  %sq = mul %x, %x
  store %sq, %p
  %v = load i64, %p
  %r = add %v, i64 7
  ret %r
}

func @step(%i i64, %acc i64) i64 {
entry:
  %p = gep i64, @data, %i
  %d = load i64, %p
  %mix = xor %d, %acc
  %f = call @inner(%mix)
  %r = add %f, %acc
  ret %r
}

func @main() void {
entry:
  %scratch = alloca i64 x 8
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %acc = phi i64 [i64 1, entry], [%next, loop]
  %next = call @step(%i, %acc)
  %sp = gep i64, %scratch, i64 0
  store %next, %sp
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 16
  condbr %c, loop, done
done:
  %op = gep i64, @out, i64 0
  store %next, %op
  %final = load i64, %op
  print %final
  %ff = sitofp %final to f64
  %root = intrinsic sqrt(%ff)
  print %root
  ret
}
`

// trapProgram crashes with an out-of-bounds store partway through its
// loop, well after the first snapshot.
const trapProgram = `
module "snaptrap"
global @a i64 x 4
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %p = gep i64, @a, %i
  store %i, %p
  print %i
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 4000
  condbr %c, loop, done
done:
  ret
}
`

// divzeroProgram traps with a division by zero once the loop counter
// wraps to the poisoned denominator.
const divzeroProgram = `
module "snapdiv"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 400, entry], [%dec, loop]
  %dec = sub %i, i64 1
  %q = sdiv i64 100000, %dec
  print %q
  %c = icmp sgt %dec, i64 -5
  condbr %c, loop, done
done:
  ret
}
`

// spinProgram never terminates; runs classify as hangs via MaxDynInstrs.
const spinProgram = `
module "snapspin"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %inc = add %i, i64 1
  print %inc
  br loop
}
`

// collectSnapshots runs m with periodic snapshotting and returns the full
// result plus every captured snapshot.
func collectSnapshots(t testing.TB, m *ir.Module, interval uint64, opts Options) (*Result, []*Snapshot) {
	t.Helper()
	var snaps []*Snapshot
	opts.SnapshotInterval = interval
	opts.OnSnapshot = func(s *Snapshot) { snaps = append(snaps, s) }
	res, err := Run(m, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, snaps
}

// assertSameResult fails unless got matches want in every observable
// field: outcome, trap identity, output bytes, counters, peak memory.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Outcome != want.Outcome {
		t.Errorf("%s: outcome = %v, want %v", label, got.Outcome, want.Outcome)
	}
	if (got.Trap == nil) != (want.Trap == nil) {
		t.Fatalf("%s: trap presence mismatch: got %v, want %v", label, got.Trap, want.Trap)
	}
	if got.Trap != nil && (got.Trap.Kind != want.Trap.Kind ||
		got.Trap.Instr != want.Trap.Instr || got.Trap.Addr != want.Trap.Addr) {
		t.Errorf("%s: trap = %+v, want %+v", label, got.Trap, want.Trap)
	}
	if got.Output != want.Output {
		t.Errorf("%s: output differs (%d vs %d bytes)", label, len(got.Output), len(want.Output))
	}
	if got.OutputLines != want.OutputLines {
		t.Errorf("%s: output lines = %d, want %d", label, got.OutputLines, want.OutputLines)
	}
	if got.DynInstrs != want.DynInstrs {
		t.Errorf("%s: dyn instrs = %d, want %d", label, got.DynInstrs, want.DynInstrs)
	}
	if got.DynResults != want.DynResults {
		t.Errorf("%s: dyn results = %d, want %d", label, got.DynResults, want.DynResults)
	}
	if got.PeakMemBytes != want.PeakMemBytes {
		t.Errorf("%s: peak mem = %d, want %d", label, got.PeakMemBytes, want.PeakMemBytes)
	}
}

// roundTrip verifies that resuming every snapshot of a run reproduces the
// uninterrupted result bit for bit.
func roundTrip(t *testing.T, m *ir.Module, interval uint64, opts Options) {
	t.Helper()
	want, err := Run(m, opts)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	_, snaps := collectSnapshots(t, m, interval, opts)
	if want.DynInstrs > interval && len(snaps) == 0 {
		t.Fatalf("no snapshots captured over %d instructions at interval %d",
			want.DynInstrs, interval)
	}
	for i, s := range snaps {
		got, err := Resume(s, opts)
		if err != nil {
			t.Fatalf("resume snapshot %d (@%d): %v", i, s.DynInstrs(), err)
		}
		assertSameResult(t, labelf("snapshot %d @%d", i, s.DynInstrs()), got, want)
	}
}

func labelf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// TestSnapshotRoundTripStateDimensions snapshots a program mid nested
// call with live allocas in three frames, then resumes each snapshot:
// the continuation must be bit-identical to the uninterrupted run.
func TestSnapshotRoundTripStateDimensions(t *testing.T) {
	m := mustParse(t, snapProgram)
	for _, interval := range []uint64{3, 17, 64, 500} {
		roundTrip(t, m, interval, Options{})
	}
}

// TestSnapshotRoundTripTrap covers crashing continuations: the resumed
// run must reach the same trap, at the same instruction and address,
// with the same partial output.
func TestSnapshotRoundTripTrap(t *testing.T) {
	roundTrip(t, mustParse(t, trapProgram), 7, Options{})
	roundTrip(t, mustParse(t, divzeroProgram), 13, Options{})
}

// TestSnapshotRoundTripHang covers budget exhaustion: the resumed run
// must hang at exactly the same dynamic instruction count.
func TestSnapshotRoundTripHang(t *testing.T) {
	m := mustParse(t, spinProgram)
	full, err := Run(m, Options{MaxDynInstrs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if full.Outcome != OutcomeHang {
		t.Fatalf("outcome = %v, want hang", full.Outcome)
	}
	roundTrip(t, m, 11, Options{MaxDynInstrs: 5000})
}

// TestSnapshotRoundTripBenchmarks proves the round-trip property on all
// real benchmark kernels with a handful of snapshots each.
func TestSnapshotRoundTripBenchmarks(t *testing.T) {
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			full, err := Run(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// ~5 snapshots per program, spread across the run.
			roundTrip(t, m, full.DynInstrs/5+1, Options{})
		})
	}
}

// TestSnapshotRandomPoints is the property test at pseudo-random dynamic
// instructions: pick a random interval, let the run capture its first
// snapshot, keep executing, resume, and require a bit-for-bit identical
// end state. The first snapshot must land on the first loop-header entry
// at or after the interval (the entries are read off a run that
// captures at every one of them).
func TestSnapshotRandomPoints(t *testing.T) {
	m := mustParse(t, snapProgram)
	full, headers := collectSnapshots(t, m, 1, Options{})
	last := headers[len(headers)-1].DynInstrs()
	rng := uint64(0x9E3779B97F4A7C15)
	for trial := 0; trial < 25; trial++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		point := 1 + rng%last
		var first *Snapshot
		opts := Options{
			SnapshotInterval: point,
			OnSnapshot: func(s *Snapshot) {
				if first == nil {
					first = s
				}
			},
		}
		if _, err := Run(m, opts); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			t.Fatalf("no snapshot at point %d", point)
		}
		k := sort.Search(len(headers), func(i int) bool { return headers[i].DynInstrs() >= point })
		if first.DynInstrs() != headers[k].DynInstrs() {
			t.Errorf("point %d: first snapshot @%d, want the first loop-header entry @%d",
				point, first.DynInstrs(), headers[k].DynInstrs())
		}
		got, err := Resume(first, Options{})
		if err != nil {
			t.Fatalf("resume @%d: %v", first.DynInstrs(), err)
		}
		assertSameResult(t, labelf("random point %d", point), got, full)
	}
}

// TestSnapshotIsImmutable resumes the same snapshot twice; the first
// resume must not perturb the second (deep-copy isolation).
func TestSnapshotIsImmutable(t *testing.T) {
	m := mustParse(t, snapProgram)
	_, snaps := collectSnapshots(t, m, 40, Options{})
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	s := snaps[len(snaps)/2]
	a, err := Resume(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "second resume", b, a)
}

// FuzzSnapshotRoundTrip fuzzes the snapshot point and program choice:
// whatever boundary the snapshot lands on — mid-call, pre-trap, pre-hang
// — the resumed continuation must reproduce the uninterrupted run.
func FuzzSnapshotRoundTrip(f *testing.F) {
	sources := []string{snapProgram, trapProgram, divzeroProgram, spinProgram}
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(97), uint8(1))
	f.Add(uint64(1023), uint8(2))
	f.Add(uint64(4096), uint8(3))
	f.Fuzz(func(t *testing.T, interval uint64, progIdx uint8) {
		m, err := ir.Parse(sources[int(progIdx)%len(sources)])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{MaxDynInstrs: 20000}
		want, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		interval = 1 + interval%(want.DynInstrs+1)
		var snaps []*Snapshot
		ropts := opts
		ropts.SnapshotInterval = interval
		ropts.OnSnapshot = func(s *Snapshot) { snaps = append(snaps, s) }
		if _, err := Run(m, ropts); err != nil {
			t.Fatal(err)
		}
		for i, s := range snaps {
			got, err := Resume(s, opts)
			if err != nil {
				t.Fatalf("resume %d: %v", i, err)
			}
			assertSameResult(t, labelf("interval %d snapshot %d", interval, i), got, want)
		}
	})
}
