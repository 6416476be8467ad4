package ir

// UseMap records, for every register-defining instruction of a function,
// the instructions that consume its result. The TRIDENT fs sub-model walks
// these def-use edges to trace static data-dependent instruction
// sequences.
type UseMap struct {
	users map[*Instr][]*Instr
}

// BuildUseMap scans fn and returns its def-use map.
func BuildUseMap(fn *Func) *UseMap {
	um := &UseMap{users: make(map[*Instr][]*Instr, fn.NumInstrs())}
	fn.Instrs(func(in *Instr) {
		for _, op := range in.Operands {
			def, ok := op.(*Instr)
			if !ok {
				continue
			}
			um.users[def] = append(um.users[def], in)
		}
	})
	return um
}

// Users returns the instructions that consume the result of def. The
// returned slice is owned by the map; callers must not mutate it.
func (um *UseMap) Users(def *Instr) []*Instr { return um.users[def] }
