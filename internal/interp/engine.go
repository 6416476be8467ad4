// The interpreter's execution engine.
//
// The machine executes the pre-lowered instruction streams produced by
// internal/decoded: operand resolution is a slice index instead of an
// interface type-switch, globals resolve through the dense slot table,
// phi prologues are straight move lists per CFG edge, and dispatch runs
// one flat switch over pre-classified steps. Activation frames (with
// their register files and phi scratch) come from a process-wide pool
// and are zeroed on reuse, so a campaign of N trials stops allocating
// O(N · frames). Hooks see the original *ir.Instr, so fault targets are
// source-instruction pointers. The crosscheck suite holds every
// observable — results, traps, counters, output and the register-write
// trace — to zero divergence against the reference evaluator
// (internal/refinterp).

package interp

import (
	"context"
	"fmt"
	"math"
	"sync"

	"trident/internal/decoded"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// CompileDecoded lowers m for the machine, recording the
// lowering latency as interp.decode_us when reg is non-nil. Campaign
// engines call it once per module and hand the program to every trial
// via Options.Decoded; per-run lowering (a nil Options.Decoded) goes
// through it too.
func CompileDecoded(m *ir.Module, reg *telemetry.Registry) *decoded.Program {
	start := metricsStart(reg)
	p := decoded.Compile(m)
	if reg != nil {
		reg.Histogram("interp.decode_us").Since(start)
	}
	return p
}

// decodedProgram returns the caller-supplied pre-compiled program when
// it matches the module, else lowers on the fly.
func decodedProgram(m *ir.Module, opts Options) *decoded.Program {
	if p := opts.Decoded; p != nil && p.Module == m {
		return p
	}
	return CompileDecoded(m, opts.Metrics)
}

// frame is one function activation. It is pooled: acquireFrame
// recycles retired frames, re-zeroing registers and parameters so reuse
// is observationally identical to a fresh allocation. For every frame
// below the top of the stack, dip indexes the call instruction awaiting
// its callee's return value.
type frame struct {
	fn      *decoded.Func
	regs    []uint64
	params  []uint64
	scratch []uint64 // phi staging buffer, sized to fn.MaxPhi
	allocas []*Segment
	blk     *decoded.Block
	dip     int  // next instruction index within blk.Code
	reused  bool // came out of the pool at least once (hit/miss stats)
}

// framePool recycles frames (with their register, parameter and
// scratch arrays) across runs, trials and goroutines.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// acquireFrame takes a frame from the pool and readies it for fn.
func (vm *machine) acquireFrame(fn *decoded.Func) *frame {
	fr := framePool.Get().(*frame)
	if fr.reused {
		vm.poolHits++
	} else {
		vm.poolMisses++
	}
	fr.prepare(fn)
	return fr
}

// prepare readies a (possibly recycled) frame for fn. Registers and
// parameters are sized and zeroed — pooled reuse must be
// indistinguishable from a fresh allocation, or stale register values
// would leak between trials. The phi scratch is sized without clearing:
// every slot is written before it is read.
func (fr *frame) prepare(fn *decoded.Func) {
	fr.fn = fn
	fr.blk = nil
	fr.dip = 0
	fr.regs = resizeZeroed(fr.regs, fn.NumRegs)
	fr.params = resizeZeroed(fr.params, fn.NumParams)
	if cap(fr.scratch) < fn.MaxPhi {
		fr.scratch = make([]uint64, fn.MaxPhi)
	} else {
		fr.scratch = fr.scratch[:fn.MaxPhi]
	}
	fr.allocas = fr.allocas[:0]
}

// resizeZeroed returns s resized to n elements, all zero, reusing its
// backing array when large enough.
func resizeZeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// releaseFrame returns fr to the pool, dropping object references so
// pooled frames do not retain programs or memory segments.
func releaseFrame(fr *frame) {
	fr.fn = nil
	fr.blk = nil
	clear(fr.allocas)
	fr.allocas = fr.allocas[:0]
	fr.reused = true
	framePool.Put(fr)
}

// machine executes a decoded program against a shared context.
// Activation frames live on an explicit heap stack rather than the Go
// call stack: the complete execution state — frames, registers, memory,
// program position, counters — is a plain data structure, which is what
// makes Snapshot/Resume possible.
type machine struct {
	ctx     *Context
	prog    *decoded.Program
	globals []uint64
	frames  []*frame

	// cancelCtx/cancel mirror Options.Context for the cooperative
	// cancellation checks in the instruction loop (nil = never cancelled).
	cancelCtx context.Context
	cancel    <-chan struct{}

	// snapEvery/nextSnap drive periodic snapshot capture: the first
	// loop-header entry at DynCount >= nextSnap captures (nextSnap is
	// MaxUint64 when capture is disabled).
	snapEvery uint64
	nextSnap  uint64

	// faultAt is Options.Fault's target until the fault fires, then nil,
	// so finish and applyEdge test it with one pointer compare. fault.Seen
	// counts the target's executions so far, and injectedAt is the
	// DynCount the fault fired at (0 until then).
	faultAt    *ir.Instr
	fault      Fault
	injectedAt uint64

	// join is the usable Options.Join index; joins is its per-block table
	// once the fault has fired (nil before, so no state is compared
	// until then), and joinedAt the count of the snapshot a rejoin
	// matched. outStart is the output length the run started with: the
	// output before it is the reference run's, so a rejoin check
	// compares only the bytes after it.
	join     *JoinIndex
	joins    []*blockJoin
	joinedAt uint64
	outStart int

	// onResult is Options.Hooks.OnResult. slowResult is set while it is
	// non-nil or the fault is armed: only then does finish take
	// finishSlow.
	onResult   func(ctx *Context, in *ir.Instr, bits uint64)
	slowResult bool

	// poolHits/poolMisses tally frame-pool reuse and joinProbes/
	// joinCompares the rejoin checks (tryJoin calls, full sameState
	// compares) for this execution, flushed to the metrics registry at
	// run end (never touched on the dispatch path by atomics).
	poolHits     uint64
	poolMisses   uint64
	joinProbes   uint64
	joinCompares uint64
}

// newMachine wires a machine to its context, including cancellation,
// snapshot capture, the fault and the join index from the context's
// options.
func newMachine(ctx *Context, prog *decoded.Program, globals []uint64) *machine {
	vm := &machine{ctx: ctx, prog: prog, globals: globals, nextSnap: math.MaxUint64}
	opts := &ctx.opts
	if c := opts.Context; c != nil {
		vm.cancelCtx = c
		vm.cancel = c.Done()
	}
	if opts.SnapshotInterval > 0 && opts.OnSnapshot != nil {
		vm.snapEvery = opts.SnapshotInterval
		vm.nextSnap = ctx.DynCount + vm.snapEvery
	}
	vm.onResult = opts.Hooks.OnResult
	vm.fault = opts.Fault
	vm.faultAt = opts.Fault.Target
	vm.slowResult = vm.onResult != nil || vm.faultAt != nil
	if j := opts.Join; j != nil && j.prog == prog {
		vm.join = j
	}
	vm.outStart = ctx.output.Len()
	return vm
}

// flushCounters records the run's frame-pool and rejoin tallies.
func (vm *machine) flushCounters(m *runMetrics) {
	if m == nil {
		return
	}
	if vm.poolHits > 0 {
		m.frameHits.Add(vm.poolHits)
	}
	if vm.poolMisses > 0 {
		m.frameMisses.Add(vm.poolMisses)
	}
	if vm.joinProbes > 0 {
		m.joinProbes.Add(vm.joinProbes)
	}
	if vm.joinCompares > 0 {
		m.joinCompares.Add(vm.joinCompares)
	}
	vm.poolHits, vm.poolMisses, vm.joinProbes, vm.joinCompares = 0, 0, 0, 0
}

// run drives the dispatch loop behind a panic barrier: any panic
// escaping the instruction loop — an explicit engine assertion or an
// implicit runtime fault such as an out-of-range slice index — is
// converted into a typed *InternalError so one bad trial cannot take
// down a whole campaign process. Run passes main, which is pushed first;
// Resume passes nil, having populated the frame stack from a snapshot.
func (vm *machine) run(main *decoded.Func) (err error) {
	defer recoverInternal(&err)
	if main != nil {
		err = vm.push(main)
	}
	if err == nil {
		_, err = vm.loop()
	}
	if err != nil {
		vm.unwind()
	}
	return err
}

// push creates and enters a new activation for fn (no arguments: calls
// write arguments into the callee frame inline in the loop).
func (vm *machine) push(fn *decoded.Func) error {
	ctx := vm.ctx
	if ctx.depth >= maxCallDepth {
		return &Trap{Kind: TrapStackOverflow, Instr: fn.Ref.Entry().Instrs[0]}
	}
	ctx.depth++
	fr := vm.acquireFrame(fn)
	vm.frames = append(vm.frames, fr)
	fr.blk = &fn.Blocks[0]
	if fr.blk.NPhi > 0 {
		return vm.applyEdge(fr, &fr.blk.Edges[fr.blk.EntryEdge])
	}
	return nil
}

// pop releases the top frame's allocas, removes it from the stack and
// recycles it.
func (vm *machine) pop() {
	fr := vm.frames[len(vm.frames)-1]
	for _, seg := range fr.allocas {
		vm.ctx.Mem.Release(seg)
	}
	vm.frames[len(vm.frames)-1] = nil
	vm.frames = vm.frames[:len(vm.frames)-1]
	vm.ctx.depth--
	releaseFrame(fr)
}

// unwind pops every remaining frame after an error terminates the loop.
func (vm *machine) unwind() {
	for len(vm.frames) > 0 {
		vm.pop()
	}
}

// evalOp resolves an operand slot to its bit pattern. It is small
// enough to inline: registers and constants, the common cases, resolve
// in place, and the other kinds go through evalSlow.
func (vm *machine) evalOp(fr *frame, o *decoded.Operand) uint64 {
	switch o.Kind {
	case decoded.KindReg:
		return fr.regs[o.Idx]
	case decoded.KindConst:
		return o.Bits
	}
	return vm.evalSlow(fr, o)
}

// evalSlow resolves a parameter, global or invalid operand slot.
func (vm *machine) evalSlow(fr *frame, o *decoded.Operand) uint64 {
	switch o.Kind {
	case decoded.KindParam:
		return fr.params[o.Idx]
	case decoded.KindGlobal:
		return vm.globals[o.Idx]
	default:
		// A value kind the machine does not know is an engine bug, not a
		// program behavior. evalOp has no error return (it sits on the hot
		// path of every operand); raise a typed error through the panic
		// barrier in run, which surfaces it as Run's error.
		panic(&InternalError{Msg: fmt.Sprintf("interp: unknown value kind %T", vm.prog.BadVals[o.Idx])})
	}
}

// applyEdge runs one phi prologue: all sources evaluate against the
// predecessor's register state (into the frame's scratch), then each
// phi counts, truncates, offers the hook and commits, in phi order. Phis
// execute as part of block entry but still count as dynamic instructions
// and register writes (LLFI injects into them too).
func (vm *machine) applyEdge(fr *frame, e *decoded.Edge) error {
	if e.Bad != nil {
		return fmt.Errorf("interp: phi %s has no incoming for block %s",
			e.Bad.Pos(), e.BadPrev)
	}
	ctx := vm.ctx
	scratch := fr.scratch[:len(e.Moves)]
	for i := range e.Moves {
		scratch[i] = vm.evalOp(fr, &e.Moves[i].Src)
	}
	hook := vm.onResult
	for i := range e.Moves {
		mv := &e.Moves[i]
		ctx.DynCount++
		if ctx.DynCount > ctx.opts.MaxDynInstrs {
			return errHang
		}
		bits := scratch[i] & mv.Mask
		ctx.DynResults++
		if hook != nil {
			hook(ctx, mv.Ref, bits)
		}
		if mv.Ref == vm.faultAt {
			bits = vm.inject(bits, mv.Mask)
		}
		fr.regs[mv.Dst] = bits
	}
	return nil
}

// branchTo moves fr to decoded block t, applying phi edge e when the
// target has a prologue. Such a loop-header entry is where snapshots are
// captured and, once the fault has fired, where the run may rejoin the
// reference run: it then returns errRejoined.
func (vm *machine) branchTo(fr *frame, t, e int32) error {
	fr.blk = &fr.fn.Blocks[t]
	fr.dip = 0
	if e < 0 {
		return nil
	}
	if err := vm.applyEdge(fr, &fr.blk.Edges[e]); err != nil {
		return err
	}
	if vm.ctx.DynCount >= vm.nextSnap {
		vm.takeSnapshot()
	}
	if vm.joins != nil {
		if bj := vm.joins[fr.blk.ID]; bj != nil && vm.tryJoin(bj, fr) {
			return errRejoined
		}
	}
	return nil
}

// finish counts a result, truncates it, and writes the destination
// register of in, which must define one (non-phi instructions; phis go
// through applyEdge). It is small enough to inline: the OnResult hook
// and the fault check run in finishSlow, reached only while a hook is
// set or the fault is armed.
func (vm *machine) finish(fr *frame, in *decoded.Instr, bits uint64) {
	vm.ctx.DynResults++
	fr.regs[in.Dst] = bits & in.Mask
	if vm.slowResult {
		vm.finishSlow(fr, in)
	}
}

// finishSlow shows the result finish wrote to the OnResult hook and
// applies the fault when this is its instance, rewriting the register.
func (vm *machine) finishSlow(fr *frame, in *decoded.Instr) {
	if h := vm.onResult; h != nil {
		h(vm.ctx, in.Ref, fr.regs[in.Dst])
	}
	if in.Ref == vm.faultAt {
		fr.regs[in.Dst] = vm.inject(fr.regs[in.Dst], in.Mask)
	}
}

// inject counts one execution of the fault's target and, at its
// Instance-th execution, flips the mask into bits and truncates with
// mask. Firing disarms the target compare and arms the join index: from
// here on the run can only rejoin the reference run, never diverge from
// it by the engine's own doing.
func (vm *machine) inject(bits, mask uint64) uint64 {
	vm.fault.Seen++
	if vm.fault.Seen != vm.fault.Instance {
		return bits
	}
	vm.faultAt = nil
	vm.slowResult = vm.onResult != nil
	vm.injectedAt = vm.ctx.DynCount
	if vm.join != nil {
		vm.joins = vm.join.blocks
	}
	return (bits ^ vm.fault.Mask) & mask
}

// loop is the dispatch loop: one flat switch over pre-classified steps.
// Each instruction counts itself before the hang check (so completing or
// trapping exactly at the budget keeps its classification), and every
// cancelCheckInterval instructions polls for cancellation. Calls push
// frames and returns pop them, all without growing the Go call stack.
func (vm *machine) loop() (uint64, error) {
	ctx := vm.ctx
	fr := vm.frames[len(vm.frames)-1]
	for {
		if fr.dip >= len(fr.blk.Code) {
			return 0, fmt.Errorf("interp: fell off end of block in %s", fr.fn.Ref.Name)
		}
		in := &fr.blk.Code[fr.dip]
		ctx.DynCount++
		if ctx.DynCount > ctx.opts.MaxDynInstrs {
			return 0, errHang
		}
		if vm.cancel != nil && ctx.DynCount&(cancelCheckInterval-1) == 0 {
			select {
			case <-vm.cancel:
				return 0, fmt.Errorf("interp: run cancelled after %d instructions: %w",
					ctx.DynCount, vm.cancelCtx.Err())
			default:
			}
		}
		switch in.Step {
		case decoded.StepBinary:
			lhs := vm.evalOp(fr, &in.A)
			rhs := vm.evalOp(fr, &in.B)
			if h := ctx.opts.Hooks.OnBinary; h != nil {
				h(ctx, in.Ref, lhs, rhs)
			}
			bits, ok := evalBinary(in.Op, in.OpndType, lhs, rhs)
			if !ok {
				return 0, &Trap{Kind: TrapDivZero, Instr: in.Ref}
			}
			vm.finish(fr, in, bits)
			fr.dip++
		case decoded.StepCmp:
			lhs := vm.evalOp(fr, &in.A)
			rhs := vm.evalOp(fr, &in.B)
			if h := ctx.opts.Hooks.OnBinary; h != nil {
				h(ctx, in.Ref, lhs, rhs)
			}
			vm.finish(fr, in, evalCmp(in.Pred, in.OpndType, lhs, rhs))
			fr.dip++
		case decoded.StepCast:
			src := vm.evalOp(fr, &in.A)
			vm.finish(fr, in, evalCast(in.Op, in.OpndType, in.Type, src))
			fr.dip++
		case decoded.StepSelect:
			var bits uint64
			if vm.evalOp(fr, &in.A)&1 != 0 {
				bits = vm.evalOp(fr, &in.B)
			} else {
				bits = vm.evalOp(fr, &in.C)
			}
			vm.finish(fr, in, bits)
			fr.dip++
		case decoded.StepIntrinsic:
			var bits uint64
			if in.NArgs <= 2 {
				var argbuf [2]float64
				var rawLHS, rawRHS uint64
				if in.NArgs >= 1 {
					rawLHS = vm.evalOp(fr, &in.A)
					argbuf[0] = ir.FloatFromBits(in.A.Type, rawLHS)
				}
				if in.NArgs == 2 {
					rawRHS = vm.evalOp(fr, &in.B)
					argbuf[1] = ir.FloatFromBits(in.B.Type, rawRHS)
				}
				if h := ctx.opts.Hooks.OnBinary; h != nil {
					h(ctx, in.Ref, rawLHS, rawRHS)
				}
				bits = ir.FloatToBits(in.Type, evalIntrinsic(in.Intr, argbuf[:in.NArgs]))
			} else {
				// Over-arity intrinsic (rejected by Verify): evaluate every
				// argument in order, rawRHS tracking the last operand.
				args := make([]float64, len(in.Args))
				var rawLHS, rawRHS uint64
				for i := range in.Args {
					raw := vm.evalOp(fr, &in.Args[i])
					if i == 0 {
						rawLHS = raw
					} else {
						rawRHS = raw
					}
					args[i] = ir.FloatFromBits(in.Args[i].Type, raw)
				}
				if h := ctx.opts.Hooks.OnBinary; h != nil {
					h(ctx, in.Ref, rawLHS, rawRHS)
				}
				bits = ir.FloatToBits(in.Type, evalIntrinsic(in.Intr, args))
			}
			vm.finish(fr, in, bits)
			fr.dip++
		case decoded.StepAlloca:
			seg := ctx.Mem.Allocate("alloca", in.AllocSize)
			fr.allocas = append(fr.allocas, seg)
			vm.finish(fr, in, seg.Base)
			fr.dip++
		case decoded.StepLoad:
			addr := vm.evalOp(fr, &in.A)
			bits, ok := ctx.Mem.load(addr, uint64(in.Size))
			if !ok {
				return 0, &Trap{Kind: TrapOOBLoad, Instr: in.Ref, Addr: addr}
			}
			if h := ctx.opts.Hooks.OnLoad; h != nil {
				h(ctx, in.Ref, addr, bits)
			}
			vm.finish(fr, in, bits)
			fr.dip++
		case decoded.StepStore:
			bits := vm.evalOp(fr, &in.A)
			addr := vm.evalOp(fr, &in.B)
			if !ctx.Mem.store(addr, uint64(in.Size), bits) {
				return 0, &Trap{Kind: TrapOOBStore, Instr: in.Ref, Addr: addr}
			}
			if h := ctx.opts.Hooks.OnStore; h != nil {
				h(ctx, in.Ref, addr, bits)
			}
			fr.dip++
		case decoded.StepGep:
			base := vm.evalOp(fr, &in.A)
			idx := ir.SignExtend(vm.evalOp(fr, &in.B), in.IdxWidth)
			vm.finish(fr, in, base+uint64(idx*in.ElemBytes))
			fr.dip++
		case decoded.StepCall:
			callee := in.Callee
			if ctx.depth >= maxCallDepth {
				return 0, &Trap{Kind: TrapStackOverflow, Instr: callee.Ref.Entry().Instrs[0]}
			}
			ctx.depth++
			nf := vm.acquireFrame(callee)
			for i := range in.Args {
				nf.params[i] = vm.evalOp(fr, &in.Args[i])
			}
			vm.frames = append(vm.frames, nf)
			nf.blk = &callee.Blocks[0]
			if nf.blk.NPhi > 0 {
				if err := vm.applyEdge(nf, &nf.blk.Edges[nf.blk.EntryEdge]); err != nil {
					return 0, err
				}
			}
			fr = nf
		case decoded.StepRet:
			var ret uint64
			if in.NArgs == 1 {
				ret = vm.evalOp(fr, &in.A)
			}
			vm.pop()
			if len(vm.frames) == 0 {
				return ret, nil
			}
			fr = vm.frames[len(vm.frames)-1]
			// The caller is suspended at its call instruction; deliver the
			// return value as that instruction's result and step past it.
			if call := &fr.blk.Code[fr.dip]; call.Dst >= 0 {
				vm.finish(fr, call, ret)
			}
			fr.dip++
		case decoded.StepBr:
			if h := ctx.opts.Hooks.OnBranch; h != nil {
				h(ctx, in.Ref, 0)
			}
			if err := vm.branchTo(fr, in.T0, in.E0); err != nil {
				return 0, err
			}
		case decoded.StepCondBr:
			cond := vm.evalOp(fr, &in.A) & 1
			taken := 1 // false edge
			if cond != 0 {
				taken = 0
			}
			if h := ctx.opts.Hooks.OnBranch; h != nil {
				h(ctx, in.Ref, taken)
			}
			t, e := in.T1, in.E1
			if taken == 0 {
				t, e = in.T0, in.E0
			}
			if err := vm.branchTo(fr, t, e); err != nil {
				return 0, err
			}
		case decoded.StepPrint:
			bits := vm.evalOp(fr, &in.A)
			line := ir.FormatValue(in.OpndType, bits, in.Format)
			ctx.output.WriteString(line)
			ctx.output.WriteByte('\n')
			ctx.lines++
			if h := ctx.opts.Hooks.OnPrint; h != nil {
				h(ctx, in.Ref, line)
			}
			fr.dip++
		case decoded.StepCheck:
			a := vm.evalOp(fr, &in.A)
			b := vm.evalOp(fr, &in.B)
			if a != b {
				return 0, &Trap{Kind: TrapDetected, Instr: in.Ref}
			}
			fr.dip++
		default: // decoded.StepInvalid
			return 0, fmt.Errorf("interp: cannot execute %s at %s", in.Op, in.Ref.Pos())
		}
	}
}

// takeSnapshot captures the current machine state and hands it to the
// OnSnapshot observer, then sets the next capture one interval from
// the current position.
func (vm *machine) takeSnapshot() {
	reg := vm.ctx.opts.Metrics
	start := metricsStart(reg)
	s := vm.capture()
	recordCapture(reg, start, s)
	vm.nextSnap = vm.ctx.DynCount + vm.snapEvery
	vm.ctx.opts.OnSnapshot(s)
}

// capture deep-copies the machine state. Frames are stored in the
// machine's own terms — decoded function, decoded block and dip — so
// Resume rebuilds them without any lookup. The memory clone returns a
// segment remapping so frame-held alloca pointers follow their copies.
func (vm *machine) capture() *Snapshot {
	ctx := vm.ctx
	mem, remap := ctx.Mem.Clone()
	s := &Snapshot{
		prog:       vm.prog,
		dynCount:   ctx.DynCount,
		dynResults: ctx.DynResults,
		depth:      ctx.depth,
		lines:      ctx.lines,
		output:     ctx.output.String(),
		mem:        mem,
		globals:    vm.globals,
		frames:     make([]frameSnap, len(vm.frames)),
	}
	for i, fr := range vm.frames {
		fs := frameSnap{
			fn:     fr.fn,
			blk:    fr.blk,
			dip:    fr.dip,
			regs:   append([]uint64(nil), fr.regs...),
			params: append([]uint64(nil), fr.params...),
		}
		if len(fr.allocas) > 0 {
			fs.allocas = make([]*Segment, len(fr.allocas))
			for j, seg := range fr.allocas {
				fs.allocas[j] = remap[seg]
			}
		}
		s.frames[i] = fs
	}
	return s
}
