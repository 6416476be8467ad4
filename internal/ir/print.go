package ir

import (
	"fmt"
	"strings"
)

// Print renders the module in the textual IR format accepted by Parse.
// The format is LLVM-flavored:
//
//	module "name"
//
//	global @arr i32 x 100 = [1, 2, 3]
//
//	func @main() void {
//	entry:
//	  %p = alloca i32 x 10
//	  %v = load i32, %p
//	  %c = icmp sgt %v, i32 0
//	  condbr %c, then, else
//	...
//	}
//
// Constants are spelled with an explicit type ("i32 5", "f64 0.5");
// registers, params and globals carry their type from their definition.
func Print(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %q\n", m.Name)
	for _, g := range m.Globals {
		sb.WriteByte('\n')
		printGlobal(&sb, g)
	}
	for _, f := range m.Funcs {
		sb.WriteByte('\n')
		printFunc(&sb, f)
	}
	return sb.String()
}

func printGlobal(sb *strings.Builder, g *Global) {
	fmt.Fprintf(sb, "global @%s %s x %d", g.Name, g.Elem, g.Count)
	if len(g.Init) == 0 {
		sb.WriteByte('\n')
		return
	}
	sb.WriteString(" = [")
	for i, bits := range g.Init {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(constLiteral(g.Elem, bits))
	}
	sb.WriteString("]\n")
}

func constLiteral(t Type, bits uint64) string {
	c := Const{Type: t, Bits: bits}
	return c.ValueString()
}

func printFunc(sb *strings.Builder, f *Func) {
	fmt.Fprintf(sb, "func @%s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%%%s %s", p.Name, p.Type)
	}
	fmt.Fprintf(sb, ") %s {\n", f.RetType)
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(FormatInstr(in))
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
}

// FormatInstr renders one instruction in the textual format.
func FormatInstr(in *Instr) string {
	var sb strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&sb, "%%%s = ", in.Name)
	}
	operand := func(i int) string { return operandString(in.Operands[i]) }

	switch {
	case in.Op.IsBinary():
		fmt.Fprintf(&sb, "%s %s, %s", in.Op, operand(0), operand(1))
	case in.Op.IsCmp():
		fmt.Fprintf(&sb, "%s %s %s, %s", in.Op, in.Pred, operand(0), operand(1))
	case in.Op.IsCast():
		fmt.Fprintf(&sb, "%s %s to %s", in.Op, operand(0), in.Type)
	case in.Op == OpSelect:
		fmt.Fprintf(&sb, "select %s, %s, %s", operand(0), operand(1), operand(2))
	case in.Op == OpPhi:
		fmt.Fprintf(&sb, "phi %s ", in.Type)
		for i := range in.Operands {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[%s, %s]", operand(i), in.PhiBlocks[i].Name)
		}
	case in.Op == OpCall:
		fmt.Fprintf(&sb, "call @%s(", in.Callee.Name)
		for i := range in.Operands {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(operand(i))
		}
		sb.WriteString(")")
	case in.Op == OpIntrinsic:
		fmt.Fprintf(&sb, "intrinsic %s(", in.Intr)
		for i := range in.Operands {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(operand(i))
		}
		sb.WriteString(")")
	case in.Op == OpAlloca:
		fmt.Fprintf(&sb, "alloca %s x %d", in.Elem, in.Count)
	case in.Op == OpLoad:
		fmt.Fprintf(&sb, "load %s, %s", in.Elem, operand(0))
	case in.Op == OpStore:
		fmt.Fprintf(&sb, "store %s, %s", operand(0), operand(1))
	case in.Op == OpGep:
		fmt.Fprintf(&sb, "gep %s, %s, %s", in.Elem, operand(0), operand(1))
	case in.Op == OpBr:
		fmt.Fprintf(&sb, "br %s", in.Targets[0].Name)
	case in.Op == OpCondBr:
		fmt.Fprintf(&sb, "condbr %s, %s, %s", operand(0), in.Targets[0].Name, in.Targets[1].Name)
	case in.Op == OpRet:
		if len(in.Operands) == 0 {
			sb.WriteString("ret")
		} else {
			fmt.Fprintf(&sb, "ret %s", operand(0))
		}
	case in.Op == OpPrint:
		if in.Format == FormatG2 {
			fmt.Fprintf(&sb, "print g2 %s", operand(0))
		} else {
			fmt.Fprintf(&sb, "print %s", operand(0))
		}
	case in.Op == OpCheck:
		fmt.Fprintf(&sb, "check %s, %s", operand(0), operand(1))
	default:
		fmt.Fprintf(&sb, "<invalid op %d>", in.Op)
	}
	return sb.String()
}

func operandString(v Value) string {
	if c, ok := v.(*Const); ok {
		return c.Type.String() + " " + c.ValueString()
	}
	return v.ValueString()
}
