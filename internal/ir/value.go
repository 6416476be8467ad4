package ir

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Value is anything that can appear as an instruction operand: a constant,
// a function parameter, a global's address, or the register defined by an
// instruction.
type Value interface {
	// ValueType returns the scalar type of the value.
	ValueType() Type
	// ValueString returns the operand spelling used by the printer.
	ValueString() string
}

// Const is a typed immediate. Bits holds the raw bit pattern: integers are
// stored sign-extended into the low Bits() bits, F32 as math.Float32bits in
// the low 32 bits, F64 as math.Float64bits.
type Const struct {
	Type Type
	Bits uint64
}

var _ Value = (*Const)(nil)

// ConstInt returns an integer constant of type t holding v truncated to the
// width of t.
func ConstInt(t Type, v int64) *Const {
	return &Const{Type: t, Bits: TruncateToWidth(uint64(v), t.Bits())}
}

// ConstBool returns an I1 constant.
func ConstBool(v bool) *Const {
	if v {
		return &Const{Type: I1, Bits: 1}
	}
	return &Const{Type: I1, Bits: 0}
}

// ConstFloat returns a floating-point constant of type t (F32 or F64).
func ConstFloat(t Type, v float64) *Const {
	switch t {
	case F32:
		return &Const{Type: F32, Bits: uint64(math.Float32bits(float32(v)))}
	default:
		return &Const{Type: F64, Bits: math.Float64bits(v)}
	}
}

// ValueType implements Value.
func (c *Const) ValueType() Type { return c.Type }

// Int returns the constant interpreted as a signed integer.
func (c *Const) Int() int64 { return SignExtend(c.Bits, c.Type.Bits()) }

// Float returns the constant interpreted as a float.
func (c *Const) Float() float64 {
	if c.Type == F32 {
		return float64(math.Float32frombits(uint32(c.Bits)))
	}
	return math.Float64frombits(c.Bits)
}

// ValueString implements Value.
func (c *Const) ValueString() string {
	switch {
	case c.Type.IsFloat():
		return strconv.FormatFloat(c.Float(), 'g', -1, 64)
	case c.Type == Ptr:
		return "0x" + strconv.FormatUint(c.Bits, 16)
	default:
		return strconv.FormatInt(c.Int(), 10)
	}
}

// Param is a formal parameter of a function.
type Param struct {
	Name  string
	Type  Type
	Index int
	Fn    *Func
}

var _ Value = (*Param)(nil)

// ValueType implements Value.
func (p *Param) ValueType() Type { return p.Type }

// ValueString implements Value.
func (p *Param) ValueString() string { return "%" + p.Name }

// Global is a module-level typed array in memory. Its Value use denotes the
// address of its first element (type Ptr).
type Global struct {
	Name string
	// Elem is the element type of the array.
	Elem Type
	// Count is the number of elements.
	Count int
	// Init holds initial bit patterns for the first len(Init) elements;
	// remaining elements are zero.
	Init []uint64
	// Slot is the global's dense index within its module (its position in
	// Module.Globals), assigned by Module.AddGlobal. Execution engines use
	// it to resolve a global operand to its base address with a slice
	// index instead of a map lookup.
	Slot int
}

var _ Value = (*Global)(nil)

// ValueType implements Value; a global used as an operand is its address.
func (g *Global) ValueType() Type { return Ptr }

// ValueString implements Value.
func (g *Global) ValueString() string { return "@" + g.Name }

// SizeBytes returns the storage footprint of the global.
func (g *Global) SizeBytes() int { return g.Count * g.Elem.Bytes() }

// TruncateToWidth masks bits to the low width bits. A width of 64 or more
// returns bits unchanged.
func TruncateToWidth(bits uint64, width int) uint64 {
	if width >= 64 {
		return bits
	}
	return bits & ((1 << uint(width)) - 1)
}

// SignExtend interprets the low width bits of bits as a two's-complement
// integer and returns it sign-extended to 64 bits.
func SignExtend(bits uint64, width int) int64 {
	if width >= 64 {
		return int64(bits)
	}
	bits = TruncateToWidth(bits, width)
	sign := uint64(1) << uint(width-1)
	if bits&sign != 0 {
		bits |= ^uint64(0) << uint(width)
	}
	return int64(bits)
}

// HighestBit returns the index of the most significant set bit of x: the
// floor of log2(x). Zero and one both return 0.
func HighestBit(x uint64) int { return bits.Len64(x|1) - 1 }

// FloatFromBits decodes a bit pattern of type t (F32 or F64) into a
// float64.
func FloatFromBits(t Type, bits uint64) float64 {
	if t == F32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// FloatToBits encodes v as a bit pattern of type t (F32 or F64).
func FloatToBits(t Type, v float64) uint64 {
	if t == F32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

// FormatValue renders a runtime bit pattern of type t the way the
// interpreter's Print instruction does, honoring the output format.
func FormatValue(t Type, bits uint64, format OutputFormat) string {
	switch {
	case t.IsFloat():
		v := FloatFromBits(t, bits)
		if format == FormatG2 {
			return strconv.FormatFloat(v, 'g', 2, 64)
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	case t == Ptr:
		return fmt.Sprintf("0x%x", bits)
	default:
		return strconv.FormatInt(SignExtend(bits, t.Bits()), 10)
	}
}
