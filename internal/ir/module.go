package ir

import "fmt"

// Module is a compilation unit: a set of globals and functions. Execution
// starts at the function named "main".
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddGlobal appends a global to the module and returns it. The global's
// Slot is its index in Globals; engines rely on slots being dense and in
// declaration order.
func (m *Module) AddGlobal(name string, elem Type, count int, init []uint64) *Global {
	g := &Global{Name: name, Elem: elem, Count: count, Init: init, Slot: len(m.Globals)}
	m.Globals = append(m.Globals, g)
	return g
}

// NumInstrs returns the number of static instructions across all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Instrs calls visit for every instruction in the module, in function and
// block order.
func (m *Module) Instrs(visit func(*Instr)) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				visit(in)
			}
		}
	}
}

// Func is a function: an ordered list of basic blocks, the first of which
// is the entry block.
type Func struct {
	Name    string
	Params  []*Param
	RetType Type
	Blocks  []*Block
	Module  *Module

	nextID int // next instruction ID, maintained by Renumber/appendInstr
}

// NewFunc creates a function, registers it with the module and returns it.
func (m *Module) NewFunc(name string, ret Type, params ...*Param) *Func {
	f := &Func{Name: name, RetType: ret, Module: m}
	for i, p := range params {
		p.Index = i
		p.Fn = f
	}
	f.Params = params
	m.Funcs = append(m.Funcs, f)
	return f
}

// NewParam returns a formal parameter for use with NewFunc.
func NewParam(name string, t Type) *Param {
	return &Param{Name: name, Type: t}
}

// Entry returns the entry block, or nil if the function has no blocks.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Block returns the block with the given name, or nil.
func (f *Func) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// NewBlock appends a new empty block with the given name.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: name, Index: len(f.Blocks), Fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumInstrs returns the number of static instructions in the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Instrs calls visit for every instruction in block order.
func (f *Func) Instrs(visit func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			visit(in)
		}
	}
}

// Renumber assigns sequential IDs (and default register names to unnamed
// results) to all instructions in block order, and reindexes blocks. It
// must be called after structural mutation and before profiling or
// analysis.
func (f *Func) Renumber() {
	id := 0
	for bi, b := range f.Blocks {
		b.Index = bi
		for _, in := range b.Instrs {
			in.ID = id
			if in.HasResult() && in.Name == "" {
				in.Name = fmt.Sprintf("t%d", id)
			}
			id++
		}
	}
	f.nextID = id
}

// InstrByID returns the instruction with the given function-local ID, or
// nil. IDs are assigned by Renumber.
func (f *Func) InstrByID(id int) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID == id {
				return in
			}
		}
	}
	return nil
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Name   string
	Index  int
	Instrs []*Instr
	Fn     *Func
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks in CFG order (CondBr: [true, false]).
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// appendInstr attaches an instruction to the block, assigning its ID.
func (b *Block) appendInstr(in *Instr) *Instr {
	in.Block = b
	in.ID = b.Fn.nextID
	b.Fn.nextID++
	if in.HasResult() && in.Name == "" {
		in.Name = fmt.Sprintf("t%d", in.ID)
	}
	b.Instrs = append(b.Instrs, in)
	return in
}
