// Package decoded lowers IR modules ahead of time into flat,
// cache-friendly instruction streams for the interpreter's execution
// engine (internal/interp).
//
// Walking the IR directly would re-decode every instruction on every
// dynamic execution: each operand costs an interface type-switch, phi
// prologues re-scan incoming lists against the predecessor block, and
// dispatch runs a nested opcode switch. A fault-injection campaign
// executes the same static instructions millions of times, so that
// per-dispatch decode work would dominate trial time. Compile performs
// the decode once per module instead:
//
//   - Operands become (kind, index | inline constant) slots — resolving
//     one at runtime is a four-way switch over a small struct, with
//     register/parameter/global indices pre-extracted. Globals use
//     dense module slots (ir.Global.Slot), not pointer-keyed maps.
//   - Every instruction carries a Step classification so the hot loop
//     dispatches through a single flat switch, with opcode-specific
//     constants (alloca sizes, gep element strides, operand widths,
//     comparison predicates) precomputed.
//   - Phi clusters are pre-grouped per (block, predecessor) edge into
//     straight move lists: block entry evaluates the edge's sources
//     into frame-resident scratch and commits them in order, with no
//     incoming-list scan.
//   - Branch targets are pre-resolved to decoded block indices, and
//     each branch carries the edge index to apply in its target.
//   - Each block records the registers live after its phi prologue, and
//     each call those live once it returns (liveness.go), so the
//     interpreter's rejoin check compares only registers the rest of a
//     run can read.
//
// Compile is total: it never fails and never panics. Constructs the
// engine cannot execute (which ir.Verify rejects, but execution must
// tolerate) are lowered to runtime-error markers — StepInvalid
// instructions, Edge.Bad phis, invalid-operand slots — that fail with
// the reference evaluator's error when (and only when) they are
// actually reached.
//
// A Program is immutable after Compile and safe for concurrent use by
// any number of executions; it holds no run state. Campaign engines
// compile once per module and share the Program across all trials.
// DESIGN.md §5f covers the engine contract; ANALYSIS.md §3 places this
// lowering within the static-analysis surface.
package decoded

import "trident/internal/ir"

// Kind classifies an operand slot.
type Kind uint8

// Operand slot kinds.
const (
	// KindConst is an inline constant; the bit pattern is in Operand.Bits.
	KindConst Kind = iota
	// KindReg reads the frame register Operand.Idx (an instruction ID).
	KindReg
	// KindParam reads frame parameter Operand.Idx.
	KindParam
	// KindGlobal reads the base address of the global in module slot
	// Operand.Idx.
	KindGlobal
	// KindInvalid marks a value kind the engine does not know. Evaluating
	// it raises an internal error; Operand.Idx indexes Program.BadVals
	// for the offending value.
	KindInvalid
)

// Operand is one pre-resolved operand slot.
type Operand struct {
	// Kind selects how the slot is evaluated.
	Kind Kind
	// Type is the operand's scalar value type.
	Type ir.Type
	// Idx is the register ID, parameter index, global slot, or BadVals
	// index, by Kind.
	Idx int32
	// Bits is the inline constant for KindConst.
	Bits uint64
}

// Step classifies an instruction for the engine's flat dispatch switch.
// It is a superset of the opcode: distinct opcodes that execute
// identically (all binary ops, all casts) share a step, and malformed
// instructions get StepInvalid.
type Step uint8

// Dispatch steps.
const (
	// StepInvalid fails at execution time with a "cannot execute"
	// error. Mid-block phis, unknown opcodes, and
	// instructions with malformed operand lists lower to it.
	StepInvalid Step = iota
	StepBinary
	StepCmp
	StepCast
	StepSelect
	StepIntrinsic
	StepAlloca
	StepLoad
	StepStore
	StepGep
	StepCall
	StepRet
	StepBr
	StepCondBr
	StepPrint
	StepCheck
)

// Instr is one pre-decoded instruction. Fields beyond Step, Ref and the
// operand slots are opcode-specific and only meaningful for the steps
// that read them.
type Instr struct {
	// Step drives the engine's dispatch switch.
	Step Step
	// Op is the original opcode (binary/cmp/cast evaluation, diagnostics).
	Op ir.Opcode
	// Pred is the comparison predicate (StepCmp).
	Pred ir.Predicate
	// Intr is the intrinsic kind (StepIntrinsic).
	Intr ir.Intrinsic
	// NArgs is the operand arity where it matters at runtime: 1 for a
	// value-carrying ret, the argument count for intrinsics.
	NArgs int
	// Type is the result type.
	Type ir.Type
	// OpndType is the first operand's value type: the evaluation type of
	// binary/cmp instructions, the source type of casts, the print
	// operand's type.
	OpndType ir.Type
	// Size is the load/store access width in bytes: 8, 4, 2, 1, or 0
	// for an element type without a width.
	Size uint8
	// Format is the output format (StepPrint).
	Format ir.OutputFormat
	// Mask keeps the result type's low bits (Type's width): a result is
	// truncated by ANDing it in.
	Mask uint64
	// Dst is the destination register (instruction ID), or -1 when the
	// instruction defines no register.
	Dst int32
	// A, B, C are the fixed operand slots (lhs/rhs/select-false, by step).
	A, B, C Operand
	// Args are call arguments, and intrinsic arguments when an
	// (ill-formed) intrinsic has more than two.
	Args []Operand
	// AllocSize is the alloca footprint in bytes, precomputed.
	AllocSize uint64
	// ElemBytes is the gep element stride in bytes.
	ElemBytes int64
	// IdxWidth is the gep index operand's width in bits.
	IdxWidth int
	// Callee is the called function (StepCall); nil makes the call fail
	// with an InternalError (the engine's nil dereference is recovered).
	Callee *Func
	// LiveAfter lists, in increasing order, the registers live once the
	// call returns, without the call's own result (StepCall): the ones a
	// frame suspended at this call can still read.
	LiveAfter []int32
	// T0, T1 are decoded block indices of the branch targets (T1 is the
	// false edge of a condbr).
	T0, T1 int32
	// E0, E1 are the indices into the target block's Edges to apply on
	// entry, or -1 when the target has no phi prologue.
	E0, E1 int32
	// Ref is the source instruction: hook identity, trap positions and
	// diagnostics all use it, so fault-injection targets are source
	// instruction pointers.
	Ref *ir.Instr
}

// Move is one phi assignment of an edge's prologue: evaluate Src in the
// predecessor's register state, truncate with Mask, and commit to Dst.
type Move struct {
	// Dst is the phi's register (instruction ID).
	Dst int32
	// Mask keeps the phi type's low bits.
	Mask uint64
	// Src is the incoming value for this edge.
	Src Operand
	// Ref is the source phi instruction, for the OnResult hook.
	Ref *ir.Instr
}

// Edge is the pre-grouped phi prologue for one (block, predecessor)
// pair. Entering the block through this edge runs Moves as a
// simultaneous assignment.
type Edge struct {
	// Moves are the phi assignments, in phi order.
	Moves []Move
	// Bad, when non-nil, is the first phi with no incoming value for this
	// edge's predecessor: entering through the edge fails with a "phi has
	// no incoming" error before any phi executes.
	Bad *ir.Instr
	// BadPrev is the predecessor name for Bad's error message ("<entry>"
	// for the function-entry pseudo-edge).
	BadPrev string
}

// Block is one pre-decoded basic block.
type Block struct {
	// Ref is the source block.
	Ref *ir.Block
	// ID numbers the block densely across the whole program, in
	// Program.Funcs order: per-block tables (the interpreter's rejoin
	// index) are slices of Program.NumBlocks entries indexed by it.
	ID int32
	// NPhi is the number of leading phis (the prologue length).
	NPhi int
	// Code is the non-phi instruction tail (source instructions NPhi..).
	Code []Instr
	// Edges are the phi prologues, one per discovered predecessor;
	// branch instructions carry indices into them.
	Edges []Edge
	// LiveIn lists, in increasing order, the registers live at the
	// block's first non-phi instruction, right after its phi prologue:
	// the ones the rest of the run can read before rewriting them.
	LiveIn []int32
	// EntryEdge is the index of the function-entry pseudo-edge
	// (predecessor nil), or -1. It is only built for entry blocks with a
	// phi prologue, where entering it fails with the "<entry>" error.
	EntryEdge int32
}

// Func is one pre-decoded function.
type Func struct {
	// Ref is the source function.
	Ref *ir.Func
	// NumRegs is the register file size (static instruction count).
	NumRegs int
	// NumParams is the parameter count.
	NumParams int
	// MaxPhi is the largest phi prologue in the function — the
	// frame-resident scratch size block entry needs.
	MaxPhi int
	// Blocks are the decoded blocks, parallel to Ref.Blocks.
	Blocks []Block
}

// Program is a fully lowered module.
type Program struct {
	// Module is the source module.
	Module *ir.Module
	// Funcs are the decoded functions: the module's functions in order,
	// followed by any out-of-module functions discovered through call
	// instructions.
	Funcs []*Func
	// ByFunc maps source functions to their decoded form.
	ByFunc map[*ir.Func]*Func
	// NumGlobals is the module's global count — the dense global base
	// table size the engine allocates.
	NumGlobals int
	// NumBlocks is the number of decoded blocks over all Funcs, the
	// range of Block.ID.
	NumBlocks int
	// BadVals holds operand values of unknown kind, indexed by the
	// KindInvalid slots that reference them.
	BadVals []ir.Value
}

// Compile lowers m. It never fails: malformed constructs become runtime
// error markers.
func Compile(m *ir.Module) *Program {
	p := &Program{
		Module:     m,
		ByFunc:     make(map[*ir.Func]*Func, len(m.Funcs)),
		NumGlobals: len(m.Globals),
	}
	for _, f := range m.Funcs {
		p.lowerFunc(f)
	}
	for _, df := range p.Funcs {
		computeLiveness(df)
		for i := range df.Blocks {
			df.Blocks[i].ID = int32(p.NumBlocks)
			p.NumBlocks++
		}
	}
	return p
}

// lowerFunc lowers f, memoizing so mutually recursive calls and
// out-of-module callees resolve to a single decoded form.
func (p *Program) lowerFunc(f *ir.Func) *Func {
	if df, ok := p.ByFunc[f]; ok {
		return df
	}
	df := &Func{
		Ref:       f,
		NumRegs:   f.NumInstrs(),
		NumParams: len(f.Params),
		Blocks:    make([]Block, len(f.Blocks)),
	}
	// Register before lowering the body so recursive calls terminate.
	p.ByFunc[f] = df
	p.Funcs = append(p.Funcs, df)

	// blockIndex maps source blocks to their index in Blocks. A branch
	// target outside the function (malformed IR) resolves to -1; the
	// engine's resulting index fault surfaces as an internal error.
	byBlock := make(map[*ir.Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		byBlock[b] = int32(i)
	}
	blockIndex := func(b *ir.Block) int32 {
		if i, ok := byBlock[b]; ok {
			return i
		}
		return -1
	}

	// First pass: phi prologue shapes and entry pseudo-edges, so branch
	// lowering below can resolve edges into any target, including blocks
	// that appear later in the function.
	for i, b := range f.Blocks {
		nPhi := 0
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nPhi++
		}
		blk := &df.Blocks[i]
		blk.Ref = b
		blk.NPhi = nPhi
		blk.EntryEdge = -1
		if nPhi > df.MaxPhi {
			df.MaxPhi = nPhi
		}
		if nPhi > 0 && i == 0 {
			blk.Edges = append(blk.Edges, p.buildEdge(b, nPhi, nil, "<entry>"))
			blk.EntryEdge = 0
		}
	}

	// Second pass: lower the non-phi code, creating (target, pred) edges
	// on demand as branches are discovered.
	type edgeKey struct {
		target *ir.Block
		pred   *ir.Block
	}
	edgeIdx := make(map[edgeKey]int32)
	resolveEdge := func(target, pred *ir.Block) int32 {
		ti := blockIndex(target)
		if ti < 0 {
			return -1
		}
		blk := &df.Blocks[ti]
		if blk.NPhi == 0 {
			return -1
		}
		key := edgeKey{target, pred}
		if e, ok := edgeIdx[key]; ok {
			return e
		}
		e := int32(len(blk.Edges))
		blk.Edges = append(blk.Edges, p.buildEdge(target, blk.NPhi, pred, pred.Name))
		edgeIdx[key] = e
		return e
	}

	for i, b := range f.Blocks {
		blk := &df.Blocks[i]
		tail := b.Instrs[blk.NPhi:]
		blk.Code = make([]Instr, len(tail))
		for j, in := range tail {
			blk.Code[j] = p.lowerInstr(in, b, blockIndex, resolveEdge)
		}
	}
	return df
}

// widthMask returns the mask that truncates a bit pattern to its low
// width bits, as ir.TruncateToWidth does.
func widthMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// buildEdge assembles the phi prologue of b for predecessor prev (nil
// for the function-entry pseudo-edge). As in the reference evaluator,
// phis resolve their incoming in order, taking the first matching
// incoming block, and the first phi with none marks the edge bad.
func (p *Program) buildEdge(b *ir.Block, nPhi int, prev *ir.Block, prevName string) Edge {
	var e Edge
	for i := 0; i < nPhi; i++ {
		ph := b.Instrs[i]
		found := false
		for j, pb := range ph.PhiBlocks {
			if pb == prev && j < len(ph.Operands) {
				e.Moves = append(e.Moves, Move{
					Dst:  int32(ph.ID),
					Mask: widthMask(ph.Type.Bits()),
					Src:  p.lowerOperand(ph.Operands[j]),
					Ref:  ph,
				})
				found = true
				break
			}
		}
		if !found {
			e.Moves = nil
			e.Bad = ph
			e.BadPrev = prevName
			return e
		}
	}
	return e
}

// lowerOperand resolves a value into an operand slot.
func (p *Program) lowerOperand(v ir.Value) Operand {
	switch x := v.(type) {
	case *ir.Const:
		return Operand{Kind: KindConst, Type: x.Type, Bits: x.Bits}
	case *ir.Instr:
		return Operand{Kind: KindReg, Type: x.Type, Idx: int32(x.ID)}
	case *ir.Param:
		return Operand{Kind: KindParam, Type: x.Type, Idx: int32(x.Index)}
	case *ir.Global:
		return Operand{Kind: KindGlobal, Type: ir.Ptr, Idx: int32(x.Slot)}
	default:
		p.BadVals = append(p.BadVals, v)
		return Operand{Kind: KindInvalid, Idx: int32(len(p.BadVals) - 1)}
	}
}

// lowerInstr lowers one non-phi instruction. Malformed operand lists
// lower to StepInvalid rather than failing the compile.
func (p *Program) lowerInstr(in *ir.Instr, b *ir.Block, blockIndex func(*ir.Block) int32, resolveEdge func(target, pred *ir.Block) int32) Instr {
	d := Instr{Op: in.Op, Type: in.Type, Ref: in, Dst: -1, Callee: nil, T0: -1, T1: -1, E0: -1, E1: -1}
	if in.HasResult() {
		d.Dst = int32(in.ID)
		d.Mask = widthMask(in.Type.Bits())
	}
	operands := func(n int) bool { return len(in.Operands) >= n }

	switch {
	case in.Op == ir.OpBr:
		if len(in.Targets) < 1 {
			return d
		}
		d.Step = StepBr
		d.T0 = blockIndex(in.Targets[0])
		d.E0 = resolveEdge(in.Targets[0], b)
	case in.Op == ir.OpCondBr:
		if !operands(1) || len(in.Targets) < 2 {
			return d
		}
		d.Step = StepCondBr
		d.A = p.lowerOperand(in.Operands[0])
		d.T0 = blockIndex(in.Targets[0])
		d.E0 = resolveEdge(in.Targets[0], b)
		d.T1 = blockIndex(in.Targets[1])
		d.E1 = resolveEdge(in.Targets[1], b)
	case in.Op == ir.OpRet:
		d.Step = StepRet
		if len(in.Operands) == 1 {
			d.NArgs = 1
			d.A = p.lowerOperand(in.Operands[0])
		}
	case in.Op == ir.OpCall:
		d.Step = StepCall
		d.Args = make([]Operand, len(in.Operands))
		for i, a := range in.Operands {
			d.Args[i] = p.lowerOperand(a)
		}
		if in.Callee != nil {
			d.Callee = p.lowerFunc(in.Callee)
		}
	case in.Op == ir.OpStore:
		if !operands(2) {
			return d
		}
		d.Step = StepStore
		d.A = p.lowerOperand(in.Operands[0])
		d.B = p.lowerOperand(in.Operands[1])
		d.Size = uint8(in.Elem.Bytes())
	case in.Op == ir.OpCheck:
		if !operands(2) {
			return d
		}
		d.Step = StepCheck
		d.A = p.lowerOperand(in.Operands[0])
		d.B = p.lowerOperand(in.Operands[1])
	case in.Op == ir.OpPrint:
		if !operands(1) {
			return d
		}
		d.Step = StepPrint
		d.A = p.lowerOperand(in.Operands[0])
		d.OpndType = in.Operands[0].ValueType()
		d.Format = in.Format
	case in.Op == ir.OpAlloca:
		d.Step = StepAlloca
		d.AllocSize = uint64(in.Count * in.Elem.Bytes())
	case in.Op == ir.OpLoad:
		if !operands(1) {
			return d
		}
		d.Step = StepLoad
		d.A = p.lowerOperand(in.Operands[0])
		d.Size = uint8(in.Elem.Bytes())
	case in.Op == ir.OpGep:
		if !operands(2) {
			return d
		}
		d.Step = StepGep
		d.A = p.lowerOperand(in.Operands[0])
		d.B = p.lowerOperand(in.Operands[1])
		d.ElemBytes = int64(in.Elem.Bytes())
		d.IdxWidth = in.Operands[1].ValueType().Bits()
	case in.Op == ir.OpSelect:
		if !operands(3) {
			return d
		}
		d.Step = StepSelect
		d.A = p.lowerOperand(in.Operands[0])
		d.B = p.lowerOperand(in.Operands[1])
		d.C = p.lowerOperand(in.Operands[2])
	case in.Op == ir.OpIntrinsic:
		d.Step = StepIntrinsic
		d.Intr = in.Intr
		d.NArgs = len(in.Operands)
		switch {
		case d.NArgs <= 2:
			if d.NArgs >= 1 {
				d.A = p.lowerOperand(in.Operands[0])
			}
			if d.NArgs == 2 {
				d.B = p.lowerOperand(in.Operands[1])
			}
		default:
			// Over-arity intrinsics (which Verify rejects) keep the full
			// argument list so the engine evaluates every argument in
			// order.
			d.Args = make([]Operand, len(in.Operands))
			for i, a := range in.Operands {
				d.Args[i] = p.lowerOperand(a)
			}
		}
	case in.Op.IsBinary():
		if !operands(2) {
			return d
		}
		d.Step = StepBinary
		d.A = p.lowerOperand(in.Operands[0])
		d.B = p.lowerOperand(in.Operands[1])
		d.OpndType = in.Operands[0].ValueType()
	case in.Op.IsCmp():
		if !operands(2) {
			return d
		}
		d.Step = StepCmp
		d.Pred = in.Pred
		d.A = p.lowerOperand(in.Operands[0])
		d.B = p.lowerOperand(in.Operands[1])
		d.OpndType = in.Operands[0].ValueType()
	case in.Op.IsCast():
		if !operands(1) {
			return d
		}
		d.Step = StepCast
		d.A = p.lowerOperand(in.Operands[0])
		d.OpndType = in.Operands[0].ValueType()
	default:
		// StepInvalid: mid-block phis, OpInvalid, unknown opcodes.
	}
	return d
}
