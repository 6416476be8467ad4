package decoded

import (
	"math/bits"
	"slices"
)

// Register liveness. The interpreter's rejoin check (internal/interp,
// DESIGN.md §5c) compares a faulty run's state with a reference
// snapshot's, and a register that no path reads before rewriting it
// cannot influence the rest of the run, so the check compares only live
// registers. Compile computes the two sets it needs with one backward
// dataflow per function: Block.LiveIn for the top frame, which sits at a
// block's first non-phi instruction, and Instr.LiveAfter for every frame
// below it, suspended at a call awaiting its return value.
//
// The analysis follows the engine's semantics exactly, including for
// code ir.Verify rejects: a phi move reads its source at the end of the
// predecessor and defines its register on entry, and only when the phi
// itself is live; an instruction that can only fail (StepInvalid, a bad
// phi edge, a branch out of the function, falling off a block's end)
// ends the run with an error that depends on no register, so nothing is
// live before it.

// regSet is a bitset over a function's registers.
type regSet []uint64

func newRegSet(n int) regSet { return make(regSet, (n+63)/64) }

func (s regSet) add(r int32) { s[r>>6] |= 1 << (r & 63) }
func (s regSet) del(r int32) {
	if r >= 0 && int(r>>6) < len(s) {
		s[r>>6] &^= 1 << (r & 63)
	}
}
func (s regSet) has(r int32) bool { return r >= 0 && int(r>>6) < len(s) && s[r>>6]&(1<<(r&63)) != 0 }

// addOp adds o's register, if it reads one. A register outside the set
// (one of another function's, in malformed IR) is left out: the engine
// fails on reading it, and list must not hand it to a frame compare.
func (s regSet) addOp(o *Operand) {
	if o.Kind == KindReg && o.Idx >= 0 && int(o.Idx>>6) < len(s) {
		s.add(o.Idx)
	}
}

// list returns the members below n in increasing order.
func (s regSet) list(n int) []int32 {
	var out []int32
	for w, word := range s {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			if r >= n {
				return out
			}
			out = append(out, int32(r))
			word &= word - 1
		}
	}
	return out
}

// computeLiveness fills df's Block.LiveIn and its calls' LiveAfter.
func computeLiveness(df *Func) {
	n := df.NumRegs
	liveIn := make([]regSet, len(df.Blocks))
	for i := range liveIn {
		liveIn[i] = newRegSet(n)
	}
	// entryLive adds to out what entering block t through edge e needs
	// live at the end of the predecessor.
	entryLive := func(out regSet, t, e int32) {
		if t < 0 || int(t) >= len(df.Blocks) {
			return // the engine faults on the index: an internal error
		}
		in := liveIn[t]
		if e < 0 {
			for w := range out {
				out[w] |= in[w]
			}
			return
		}
		edge := &df.Blocks[t].Edges[e]
		if edge.Bad != nil {
			return
		}
		tmp := append(regSet(nil), in...)
		for i := range edge.Moves {
			tmp.del(edge.Moves[i].Dst)
		}
		for i := range edge.Moves {
			if mv := &edge.Moves[i]; in.has(mv.Dst) {
				tmp.addOp(&mv.Src)
			}
		}
		for w := range out {
			out[w] |= tmp[w]
		}
	}

	live := newRegSet(n)
	for changed := true; changed; {
		changed = false
		for b := len(df.Blocks) - 1; b >= 0; b-- {
			blk := &df.Blocks[b]
			clear(live) // falling off the block's end is an error
			for k := len(blk.Code) - 1; k >= 0; k-- {
				transfer(live, &blk.Code[k], entryLive)
			}
			if !slices.Equal(live, liveIn[b]) {
				copy(liveIn[b], live)
				changed = true
			}
		}
	}
	for b := range df.Blocks {
		blk := &df.Blocks[b]
		blk.LiveIn = liveIn[b].list(n)
		clear(live)
		for k := len(blk.Code) - 1; k >= 0; k-- {
			in := &blk.Code[k]
			if in.Step == StepCall {
				after := append(regSet(nil), live...)
				if in.Dst >= 0 {
					after.del(in.Dst)
				}
				in.LiveAfter = after.list(n)
			}
			transfer(live, in, entryLive)
		}
	}
}

// transfer turns live, the registers live after in, into those live
// before it.
func transfer(live regSet, in *Instr, entryLive func(out regSet, t, e int32)) {
	switch in.Step {
	case StepInvalid:
		clear(live)
		return
	case StepRet:
		clear(live)
	case StepBr:
		clear(live)
		entryLive(live, in.T0, in.E0)
	case StepCondBr:
		clear(live)
		entryLive(live, in.T0, in.E0)
		entryLive(live, in.T1, in.E1)
	}
	if in.Dst >= 0 {
		live.del(in.Dst)
	}
	live.addOp(&in.A)
	live.addOp(&in.B)
	live.addOp(&in.C)
	for i := range in.Args {
		live.addOp(&in.Args[i])
	}
}
