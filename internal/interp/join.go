// Rejoin: ending a faulty run once its state meets the reference run's.
//
// A fault-injection trial that ends Benign usually stops differing from
// the golden run long before its end: the corrupted value is overwritten
// or masked, or a flipped branch took a detour and came back. From the
// moment its whole machine state equals a golden snapshot's, the rest of
// the trial repeats the golden suffix from that snapshot — execution is
// deterministic — so it would end OK with the golden output. A JoinIndex
// lets the engine see that moment and stop there.

package interp

import (
	"slices"

	"trident/internal/decoded"
)

// JoinIndex groups a reference run's snapshots by the block they were
// captured at, so a run can compare its state with them at loop-header
// entries (Options.Join). It is immutable and safe for concurrent use.
type JoinIndex struct {
	prog *decoded.Program
	// goldenDyn is the reference run's total dynamic-instruction count:
	// the suffix from a snapshot s takes goldenDyn - s.dynCount more.
	goldenDyn uint64
	// blocks is indexed by decoded.Block.ID; nil where no snapshot was
	// captured.
	blocks []*blockJoin
}

// blockJoin is one block's share of a JoinIndex: the top-frame
// registers that tell the block's snapshots apart, and a hash table of
// the snapshots over those registers' values.
type blockJoin struct {
	// keys are the block's live phi registers followed by every other
	// live register whose value differs among its snapshots — the ones
	// most likely to tell a diverged state, or the wrong snapshot, apart.
	keys []int32
	// slots is an open-addressing table of the snapshots by hashKeys of
	// their top frame's registers, linear probing, len a power of two at
	// least twice the snapshot count; a nil snap marks an empty slot.
	slots []joinSlot
}

// joinSlot is one entry of blockJoin.slots.
type joinSlot struct {
	hash uint64
	snap *Snapshot
}

// NewJoinIndex indexes snaps, captured from one reference run that
// executed goldenDyn instructions and ended OK. It returns nil when
// snaps is empty.
func NewJoinIndex(snaps []*Snapshot, goldenDyn uint64) *JoinIndex {
	if len(snaps) == 0 {
		return nil
	}
	prog := snaps[0].prog
	j := &JoinIndex{prog: prog, goldenDyn: goldenDyn, blocks: make([]*blockJoin, prog.NumBlocks)}
	byBlock := make([][]*Snapshot, prog.NumBlocks)
	for _, s := range snaps {
		id := s.top().blk.ID
		byBlock[id] = append(byBlock[id], s)
	}
	for id, group := range byBlock {
		if group == nil {
			continue
		}
		bj := &blockJoin{}
		top := group[0].top()
		blk := top.blk
		for _, in := range blk.Ref.Instrs[:blk.NPhi] {
			if _, live := slices.BinarySearch(blk.LiveIn, int32(in.ID)); live {
				bj.keys = append(bj.keys, int32(in.ID))
			}
		}
		for _, r := range blk.LiveIn {
			if slices.Contains(bj.keys, r) {
				continue
			}
			for _, s := range group[1:] {
				if s.top().regs[r] != top.regs[r] {
					bj.keys = append(bj.keys, r)
					break
				}
			}
		}
		size := 2
		for size < 2*len(group) {
			size *= 2
		}
		bj.slots = make([]joinSlot, size)
		mask := uint64(size - 1)
		for _, s := range group {
			h := hashKeys(s.top().regs, bj.keys)
			i := h & mask
			for bj.slots[i].snap != nil {
				i = (i + 1) & mask
			}
			bj.slots[i] = joinSlot{hash: h, snap: s}
		}
		j.blocks[id] = bj
	}
	return j
}

// hashKeys hashes the values of regs at keys.
func hashKeys(regs []uint64, keys []int32) uint64 {
	h := uint64(len(keys))
	for _, r := range keys {
		h = (h ^ regs[r]) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// top returns the snapshot's innermost frame.
func (s *Snapshot) top() *frameSnap { return &s.frames[len(s.frames)-1] }

// tryJoin runs at a phi-edge entry into a block holding reference
// snapshots, after the fault fired. It looks the top frame's key
// registers up in the block's table and compares the full state only
// with snapshots whose keys are equal. The reference run never holds
// the same live state twice (it would loop forever), so at most one
// snapshot can match: on a match whose golden suffix fits the
// instruction budget it records the snapshot's count and reports true.
// A run whose fault shifted control flow meets the reference state at a
// different count; the budget check keeps the join exact, since the
// full run would have hung where the shifted suffix crosses
// MaxDynInstrs.
func (vm *machine) tryJoin(bj *blockJoin, fr *frame) bool {
	vm.joinProbes++
	h := hashKeys(fr.regs, bj.keys)
	mask := uint64(len(bj.slots) - 1)
	for i := h & mask; bj.slots[i].snap != nil; i = (i + 1) & mask {
		s := bj.slots[i].snap
		if bj.slots[i].hash != h || !sameRegs(fr.regs, s.top().regs, bj.keys) {
			continue
		}
		vm.joinCompares++
		if !vm.sameState(s) {
			continue
		}
		now := vm.ctx.DynCount
		if now+(vm.join.goldenDyn-s.dynCount) > vm.ctx.opts.MaxDynInstrs {
			return false
		}
		vm.joinedAt = s.dynCount
		return true
	}
	return false
}

// sameRegs reports whether a and b agree on the registers in keys.
func sameRegs(a, b []uint64, keys []int32) bool {
	for _, r := range keys {
		if a[r] != b[r] {
			return false
		}
	}
	return true
}

// sameState reports whether the machine's state is identical to s's in
// every component that can influence the rest of the run or its
// classification — everything but the two dynamic counters and dead
// registers: the output line count and bytes, call depth, position,
// parameters and live registers of every frame, alloca placement, and
// the address space. The top frame sits at a block's first non-phi
// instruction, so its live registers are the block's LiveIn; a frame
// below it awaits its call's return, so its live registers are the
// call's LiveAfter. A dead register is rewritten before any read, and
// the counters only number instructions; the hang budget they feed is
// checked by the caller. Cheap scalar checks run first and the memory
// bytes last, so a diverged run is usually rejected in a few compares.
func (vm *machine) sameState(s *Snapshot) bool {
	ctx := vm.ctx
	if ctx.lines != s.lines || ctx.output.Len() != len(s.output) ||
		ctx.depth != s.depth || len(vm.frames) != len(s.frames) {
		return false
	}
	top := len(vm.frames) - 1
	for i, fr := range vm.frames {
		fs := &s.frames[i]
		if fr.fn != fs.fn || fr.blk != fs.blk || fr.dip != fs.dip ||
			!slices.Equal(fr.params, fs.params) || len(fr.allocas) != len(fs.allocas) {
			return false
		}
		live := fr.blk.LiveIn
		if i < top {
			live = fr.blk.Code[fr.dip].LiveAfter
		}
		if !sameRegs(fr.regs, fs.regs, live) {
			return false
		}
		for j, seg := range fr.allocas {
			if seg.Base != fs.allocas[j].Base || seg.Size != fs.allocas[j].Size {
				return false
			}
		}
	}
	if !ctx.Mem.sameContents(s.mem) {
		return false
	}
	// Output before outStart is the reference run's by construction, and
	// the reference outputs at any two points are prefixes of one
	// another, so equal lengths leave only the run's own bytes to compare.
	return ctx.output.String()[vm.outStart:] == s.output[vm.outStart:]
}
