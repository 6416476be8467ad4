// Snapshot/Resume: checkpointing of complete interpreter state.
//
// A Snapshot is a deep copy of the machine at a loop-header entry, right
// after the block's phi prologue ran — registers of every live frame, the
// segmented memory, the program position, the dynamic-instruction
// counters, and the output buffer.
// Because the interpreter is deterministic, resuming a snapshot and
// running to completion is bit-identical to having let the original run
// continue. Fault-injection campaigns exploit this: the pre-fault prefix
// of every trial is identical to the golden run, so a trial can start
// from the nearest golden snapshot at or before its injection point
// instead of re-interpreting the whole prefix from instruction 0.
//
// Snapshots are immutable after capture and safe to resume concurrently:
// every Resume clones the snapshot's memory and frames into a fresh
// machine.

package interp

import (
	"fmt"
	"time"

	"trident/internal/decoded"
	"trident/internal/telemetry"
)

// Snapshot is an immutable deep copy of interpreter state at a
// loop-header entry, captured by Options.SnapshotInterval/OnSnapshot
// during a run. It can be resumed any number of times, from any
// goroutine.
type Snapshot struct {
	// prog is the decoded program the frames point into; Resume runs it.
	prog       *decoded.Program
	dynCount   uint64
	dynResults uint64
	depth      int
	lines      int
	output     string
	mem        *Memory
	frames     []frameSnap
	// globals is shared, not copied: the dense slot-indexed base table
	// is immutable after module initialization.
	globals []uint64
}

// frameSnap is one suspended activation, positioned at instruction dip
// of decoded block blk (the phi prologue has already run). Its alloca
// segments point into the snapshot's private memory copy and are
// remapped on every Resume.
type frameSnap struct {
	fn      *decoded.Func
	blk     *decoded.Block
	dip     int
	regs    []uint64
	params  []uint64
	allocas []*Segment
}

// DynInstrs returns the number of instructions executed before the
// snapshot point — the resume position in dynamic-instruction time.
func (s *Snapshot) DynInstrs() uint64 { return s.dynCount }

// DynResults returns the number of register-writing instructions executed
// before the snapshot point.
func (s *Snapshot) DynResults() uint64 { return s.dynResults }

// Frames returns the call-stack depth at the snapshot point.
func (s *Snapshot) Frames() int { return len(s.frames) }

// MemBytes returns the live allocated bytes held by the snapshot's
// private memory copy — the per-snapshot storage cost.
func (s *Snapshot) MemBytes() uint64 { return s.mem.CurrentBytes() }

// recordCapture records one snapshot capture.
func recordCapture(reg *telemetry.Registry, start time.Time, s *Snapshot) {
	if reg == nil {
		return
	}
	reg.Counter("interp.snapshot.captures").Inc()
	reg.Counter("interp.snapshot.bytes").Add(s.MemBytes())
	reg.Histogram("interp.snapshot.capture_us").Since(start)
}

// recordResume records one snapshot-state rebuild (memory clone + frame
// copies) — the fixed per-trial cost of snapshot replay, recorded
// separately from the execution itself.
func recordResume(reg *telemetry.Registry, start time.Time) {
	if reg == nil {
		return
	}
	reg.Counter("interp.snapshot.resumes").Inc()
	reg.Histogram("interp.snapshot.restore_us").Since(start)
}

// Resume restores s into a fresh machine and runs it to completion under
// opts, returning the Result exactly as Run would have for an
// uninterrupted execution reaching the same end state: the output,
// counters and peak-memory figures all include the pre-snapshot prefix.
//
// The snapshot is not consumed — it can be resumed again, concurrently.
// Hooks in opts observe only the post-snapshot suffix of the execution.
// MaxDynInstrs retains its whole-run meaning: the budget covers prefix
// plus suffix, so hang classification is identical to a full run's.
// opts.Decoded is ignored: the snapshot resumes on the decoded program
// it was captured from.
func Resume(s *Snapshot, opts Options) (*Result, error) {
	if len(s.frames) == 0 {
		return nil, fmt.Errorf("interp: resume of empty snapshot")
	}
	applyDefaults(&opts)
	start := metricsStart(opts.Metrics)
	vm := restore(s, opts)
	recordResume(opts.Metrics, start)
	res, err := vm.finishRun(vm.run(nil))
	vm.flushPoolMetrics(opts.Metrics)
	recordRun(opts.Metrics, start, s.dynCount, vm.ctx, res, err)
	return res, err
}

// restore rebuilds s's state in a fresh machine configured by opts,
// cloning the memory and remapping frame-held alloca pointers to the
// clone's segments.
func restore(s *Snapshot, opts Options) *machine {
	mem, remap := s.mem.Clone()
	ctx := &Context{
		Mem:        mem,
		DynCount:   s.dynCount,
		DynResults: s.dynResults,
		opts:       opts,
		lines:      s.lines,
		depth:      s.depth,
	}
	ctx.output.WriteString(s.output)
	vm := newMachine(ctx, s.prog, s.globals)
	vm.frames = make([]*frame, len(s.frames))
	for i, fs := range s.frames {
		fr := vm.acquireFrame(fs.fn)
		copy(fr.regs, fs.regs)
		copy(fr.params, fs.params)
		fr.blk = fs.blk
		fr.dip = fs.dip
		for _, seg := range fs.allocas {
			fr.allocas = append(fr.allocas, remap[seg])
		}
		vm.frames[i] = fr
	}
	return vm
}
