package interp

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"trident/internal/decoded"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// InternalError reports an interpreter-internal failure — an engine bug or
// malformed IR reaching execution — as an ordinary error value instead of
// a process-killing panic. It is distinct from program-level traps: a trap
// models hardware behavior of the simulated program, an InternalError
// means the engine itself misbehaved and the run's outcome is unusable.
type InternalError struct {
	// Msg describes the failure.
	Msg string
	// Recovered is the recovered panic value when the error was converted
	// from a panic (nil for errors raised directly).
	Recovered any
	// Stack is the goroutine stack at recovery time, for diagnostics.
	Stack string
}

// Error implements error.
func (e *InternalError) Error() string { return e.Msg }

// TrapKind classifies hardware-exception-like failures.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone TrapKind = iota
	// TrapOOBLoad is a read outside every live segment.
	TrapOOBLoad
	// TrapOOBStore is a write outside every live segment.
	TrapOOBStore
	// TrapDivZero is an integer division or remainder by zero.
	TrapDivZero
	// TrapStackOverflow is call nesting beyond the configured depth.
	TrapStackOverflow
	// TrapDetected is a duplication check firing: the original and shadow
	// computations disagreed. It terminates the run but is a successful
	// detection, not a crash.
	TrapDetected
)

// String returns a short name for the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapOOBLoad:
		return "out-of-bounds load"
	case TrapOOBStore:
		return "out-of-bounds store"
	case TrapDivZero:
		return "division by zero"
	case TrapStackOverflow:
		return "stack overflow"
	case TrapDetected:
		return "error detected by check"
	default:
		return "none"
	}
}

// Trap describes a crash: the failing instruction and the offending
// address when applicable.
type Trap struct {
	Kind  TrapKind
	Instr *ir.Instr
	Addr  uint64
}

// Error implements error.
func (t *Trap) Error() string {
	if t.Kind == TrapOOBLoad || t.Kind == TrapOOBStore {
		return fmt.Sprintf("%s at %#x (%s)", t.Kind, t.Addr, t.Instr.Pos())
	}
	return fmt.Sprintf("%s (%s)", t.Kind, t.Instr.Pos())
}

// errHang signals instruction-budget exhaustion internally.
var errHang = errors.New("interp: instruction budget exhausted")

// errRejoined signals internally that the run's state matched a
// snapshot of Options.Join's reference run.
var errRejoined = errors.New("interp: rejoined the reference run")

// Outcome classifies a completed execution.
type Outcome uint8

// Execution outcomes.
const (
	// OutcomeOK means the program ran to completion.
	OutcomeOK Outcome = iota
	// OutcomeCrash means a trap terminated the program.
	OutcomeCrash
	// OutcomeHang means the instruction budget was exhausted.
	OutcomeHang
	// OutcomeDetected means a duplication check caught a corrupted value.
	OutcomeDetected
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	case OutcomeDetected:
		return "detected"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Hooks are optional observation points. Nil members are skipped. Hooks
// receive the live Context; they must not retain it past the call. No
// hook can alter a value: Options.Fault is the engine's only injection
// point.
type Hooks struct {
	// OnResult fires after an instruction computes its result, with the
	// value truncated to the result type's width and before Options.Fault
	// flips it.
	OnResult func(ctx *Context, in *ir.Instr, bits uint64)
	// OnBranch fires when a branch executes; taken is the successor index
	// (0 = true edge; always 0 for unconditional branches).
	OnBranch func(ctx *Context, in *ir.Instr, taken int)
	// OnBinary fires before a two-operand arithmetic, logic or comparison
	// instruction computes, with the operand bit patterns — the value
	// profile used to derive fs masking tuples. It also fires for
	// intrinsics (rhs is 0 for one-argument intrinsics).
	OnBinary func(ctx *Context, in *ir.Instr, lhs, rhs uint64)
	// OnLoad fires after a successful load.
	OnLoad func(ctx *Context, in *ir.Instr, addr, bits uint64)
	// OnStore fires after a successful store.
	OnStore func(ctx *Context, in *ir.Instr, addr, bits uint64)
	// OnPrint fires when a Print instruction emits a line.
	OnPrint func(ctx *Context, in *ir.Instr, line string)
}

// Options configure an execution.
type Options struct {
	// Context, when non-nil, cancels the run: execution stops at the next
	// cancellation checkpoint (every cancelCheckInterval instructions) and
	// Run returns an error wrapping ctx.Err(). Campaign engines use this
	// for cooperative shutdown and per-trial wall-clock watchdogs on top
	// of the instruction budget.
	Context context.Context
	// MaxDynInstrs bounds the number of executed instructions; exceeding
	// it classifies the run as a hang. Zero means the default (50M).
	MaxDynInstrs uint64
	// MaxCallDepth bounds call nesting. Zero means the default (1024).
	MaxCallDepth int
	// Hooks are the observation points.
	Hooks Hooks
	// SnapshotInterval, when nonzero together with OnSnapshot, captures a
	// full machine-state snapshot at the first loop-header entry — the
	// first block entry through a phi prologue, right after the prologue
	// ran — at or after every SnapshotInterval executed instructions.
	// Loop headers are where a run that left the reference path can
	// meet it again, so they are where Options.Join compares state.
	// Snapshots are deep copies: capturing them does not perturb the run,
	// and each can later be resumed any number of times via Resume. A run
	// that enters no loop header after an interval elapses captures no
	// snapshot for it.
	SnapshotInterval uint64
	// OnSnapshot receives each periodic snapshot. It runs synchronously on
	// the execution goroutine at the loop-header entry it was taken at.
	OnSnapshot func(*Snapshot)
	// Metrics, when non-nil, receives run-boundary telemetry: run and
	// dynamic-instruction counts, outcome tallies, execution latency, and
	// snapshot capture/restore counts and latencies. Instrumentation sits
	// only at run and snapshot boundaries — the per-instruction dispatch
	// path is untouched — so the overhead is a few atomic updates per
	// execution. Nil disables all recording. See OBSERVABILITY.md for the
	// metric reference.
	Metrics *telemetry.Registry
	// Decoded, when non-nil and compiled from the module being run, is
	// the pre-lowered program Run executes, letting campaign engines pay
	// the lowering cost once per module instead of once per trial. When
	// nil (or compiled from a different module) Run lowers on the fly.
	// Resume ignores it: a snapshot resumes on the program it was
	// captured from.
	Decoded *decoded.Program
	// Fault, when its Target is non-nil, is the single bit flip the
	// engine injects into this run (see Fault). The result reports
	// whether and where it fired.
	Fault Fault
	// Join, when non-nil and built from snapshots of the program being
	// run, ends the run early once it rejoins the reference run: after
	// the engine's own Fault has fired, every phi-edge entry into a block
	// holding reference snapshots looks its live key registers up in the
	// block's table, compares the machine state with any snapshot found
	// there, counters and dead registers aside, and on equality stops
	// the run with its Result marked Rejoined (DESIGN.md §5c). The
	// caller guarantees that the run starts on the reference run (at
	// instruction 0, or resumed from one of its snapshots); hooks cannot
	// alter a value, so the fault is the run's only departure from it.
	Join *JoinIndex
}

const (
	defaultMaxDynInstrs = 50_000_000
	defaultMaxCallDepth = 1024
	// cancelCheckInterval is how many instructions execute between
	// cancellation checks; a power of two so the check is a cheap mask.
	cancelCheckInterval = 1024
)

// Context is the mutable machine state exposed to hooks.
type Context struct {
	// Mem is the live address space.
	Mem *Memory
	// DynCount is the number of instructions executed so far.
	DynCount uint64
	// DynResults is the number of register-writing instructions executed
	// so far — the fault-injection sample space.
	DynResults uint64

	opts   Options
	output strings.Builder
	lines  int
	depth  int
}

// Result describes a completed execution.
type Result struct {
	// Outcome classifies the run.
	Outcome Outcome
	// Trap holds crash details when Outcome is OutcomeCrash.
	Trap *Trap
	// Output is the program's observable output (one line per Print).
	Output string
	// OutputLines is the number of Print executions.
	OutputLines int
	// DynInstrs is the number of executed instructions.
	DynInstrs uint64
	// DynResults is the number of executed register-writing instructions.
	DynResults uint64
	// PeakMemBytes is the peak allocated footprint.
	PeakMemBytes uint64
	// Rejoined marks a run stopped at a snapshot of Options.Join's
	// reference run because its state equalled the snapshot's in
	// everything but the two dynamic counters. Outcome is then
	// OutcomeOK, and Output and the counters describe the run up to that
	// point only: the rest is the reference run's suffix from the
	// snapshot, which ends OK with the reference output within the
	// instruction budget.
	Rejoined bool
	// JoinedAt is the matched snapshot's DynInstrs when Rejoined. It
	// differs from DynInstrs when the run rejoined at a shifted count
	// (a fault that moved control flow, as a skipped iteration does).
	JoinedAt uint64
	// Injected reports that Options.Fault fired, and InjectedAt is the
	// DynCount of the instruction whose result it flipped (counting that
	// instruction).
	Injected   bool
	InjectedAt uint64
}

// Fault is a single-bit transient fault in the destination register of
// one dynamic instruction: the Instance-th execution (1-based, over the
// whole run) of Target writes its result XORed with Mask. Seen is the
// number of Target's executions that completed before the run started —
// the golden prefix a snapshot resume skips — so Instance keeps its
// whole-run meaning. The engine tests each written register's source
// instruction against Target with one pointer compare, and stops
// testing once the fault has fired. A nil Target injects nothing.
type Fault struct {
	Target   *ir.Instr
	Instance uint64
	Seen     uint64
	Mask     uint64
}

// Run executes m's main function under the given options.
func Run(m *ir.Module, opts Options) (*Result, error) {
	start := metricsStart(opts.Metrics)
	main := m.Func("main")
	if main == nil {
		return nil, fmt.Errorf("interp: module %q has no main", m.Name)
	}
	if len(main.Params) != 0 {
		return nil, fmt.Errorf("interp: main must take no parameters")
	}
	applyDefaults(&opts)
	prog := decodedProgram(m, opts)

	ctx := &Context{Mem: NewMemory(), opts: opts}
	globals, err := initGlobals(ctx, m)
	if err != nil {
		return nil, err
	}

	vm := newMachine(ctx, prog, globals)
	res, err := vm.finishRun(vm.run(prog.ByFunc[main]))
	met := metricsFor(opts.Metrics)
	vm.flushCounters(met)
	met.recordRun(start, 0, ctx, res, err)
	return res, err
}

// initGlobals allocates and initializes the module's globals, returning
// their base addresses as a dense table indexed by ir.Global.Slot. The
// machine resolves a global operand with one slice index into it, so the
// table's order must match the slots AddGlobal assigned.
func initGlobals(ctx *Context, m *ir.Module) ([]uint64, error) {
	globals := make([]uint64, len(m.Globals))
	for i, g := range m.Globals {
		if g.Slot != i {
			return nil, fmt.Errorf("interp: global @%s has slot %d at position %d (globals must be built with Module.AddGlobal)",
				g.Name, g.Slot, i)
		}
		seg := ctx.Mem.Allocate(g.Name, uint64(g.SizeBytes()))
		globals[i] = seg.Base
		for j, bits := range g.Init {
			if !ctx.Mem.Store(g.Elem, seg.Base+uint64(j*g.Elem.Bytes()), bits) {
				return nil, fmt.Errorf("interp: initializing @%s failed", g.Name)
			}
		}
	}
	return globals, nil
}

// applyDefaults fills in zero-valued execution limits.
func applyDefaults(opts *Options) {
	if opts.MaxDynInstrs == 0 {
		opts.MaxDynInstrs = defaultMaxDynInstrs
	}
	if opts.MaxCallDepth == 0 {
		opts.MaxCallDepth = defaultMaxCallDepth
	}
}

// finishRun classifies the execution error into a Result.
func (vm *machine) finishRun(err error) (*Result, error) {
	ctx := vm.ctx
	res := &Result{
		Output:       ctx.output.String(),
		OutputLines:  ctx.lines,
		DynInstrs:    ctx.DynCount,
		DynResults:   ctx.DynResults,
		PeakMemBytes: ctx.Mem.PeakBytes(),
		Injected:     vm.injectedAt != 0,
		InjectedAt:   vm.injectedAt,
	}
	switch {
	case err == nil:
		res.Outcome = OutcomeOK
	case err == errRejoined:
		res.Outcome = OutcomeOK
		res.Rejoined = true
		res.JoinedAt = vm.joinedAt
	case errors.Is(err, errHang):
		res.Outcome = OutcomeHang
	default:
		var trap *Trap
		if !errors.As(err, &trap) {
			return nil, err
		}
		if trap.Kind == TrapDetected {
			res.Outcome = OutcomeDetected
		} else {
			res.Outcome = OutcomeCrash
		}
		res.Trap = trap
	}
	return res, nil
}

// recoverInternal converts an escaping panic into a typed
// *InternalError. The machine defers it around its dispatch loop.
func recoverInternal(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if ie, ok := r.(*InternalError); ok {
		ie.Stack = string(debug.Stack())
		*err = ie
		return
	}
	*err = &InternalError{
		Msg:       fmt.Sprintf("interp: internal panic: %v", r),
		Recovered: r,
		Stack:     string(debug.Stack()),
	}
}
