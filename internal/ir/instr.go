package ir

import "fmt"

// Instr is a single IR instruction. One struct type represents every
// opcode, LLVM-style; op-specific data lives in the optional fields below
// and is validated by the verifier.
type Instr struct {
	// ID is the function-local static index of the instruction, assigned
	// by Func.Renumber. It is stable across printing and parsing and is
	// the key used by the profiler and the models.
	ID int
	// Name is the register name (without the % sigil); empty for
	// instructions without a result.
	Name string
	// Op is the opcode.
	Op Opcode
	// Type is the result type (Void for instructions with no result).
	Type Type
	// Operands are the data inputs, in opcode-specific order:
	//   binary/cmp:  [lhs, rhs]
	//   cast:        [src]
	//   select:      [cond, ifTrue, ifFalse]
	//   phi:         incoming values, parallel to PhiBlocks
	//   call:        arguments
	//   intrinsic:   arguments
	//   alloca:      [] (Count elements of Elem)
	//   load:        [addr]
	//   store:       [value, addr]
	//   gep:         [base, index]  (addr = base + index*Elem.Bytes())
	//   condbr:      [cond]
	//   ret:         [value] or []
	//   print:       [value]
	Operands []Value
	// Block is the containing basic block.
	Block *Block

	// Pred is the comparison predicate (ICmp/FCmp only).
	Pred Predicate
	// Elem is the element type for Alloca/Load/Store/Gep.
	Elem Type
	// Count is the element count for Alloca.
	Count int
	// Callee is the called function (Call only).
	Callee *Func
	// Intr is the intrinsic kind (Intrinsic only).
	Intr Intrinsic
	// Targets are successor blocks: Br has one, CondBr has two in
	// [true, false] order.
	Targets []*Block
	// PhiBlocks are the incoming blocks of a Phi, parallel to Operands.
	PhiBlocks []*Block
	// Format is the output format (Print only).
	Format OutputFormat
}

var _ Value = (*Instr)(nil)

// ValueType implements Value: using an instruction as an operand refers to
// the register it defines.
func (in *Instr) ValueType() Type { return in.Type }

// ValueString implements Value.
func (in *Instr) ValueString() string { return "%" + in.Name }

// HasResult reports whether the instruction defines a register.
func (in *Instr) HasResult() bool {
	if in.Op == OpCall {
		return in.Type != Void
	}
	return in.Op.HasResult()
}

// IsTerminator reports whether the instruction ends its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// String returns a short human-readable description, mainly for error
// messages; the full textual form comes from the printer.
func (in *Instr) String() string {
	if in.HasResult() {
		return fmt.Sprintf("%%%s = %s", in.Name, in.Op)
	}
	return in.Op.String()
}

// Pos returns "func:block:id" for diagnostics.
func (in *Instr) Pos() string {
	fn := "?"
	bb := "?"
	if in.Block != nil {
		bb = in.Block.Name
		if in.Block.Fn != nil {
			fn = in.Block.Fn.Name
		}
	}
	return fmt.Sprintf("%s:%s:#%d", fn, bb, in.ID)
}
