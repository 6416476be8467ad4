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
	"sort"

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

// blockJoin is one block's share of a JoinIndex: the snapshots captured
// at its entry, by DynCount, and the top-frame registers to compare
// first.
type blockJoin struct {
	snaps []*Snapshot
	// keys are the block's phi registers followed by every other register
	// whose value differs among snaps — the ones most likely to tell a
	// diverged state, or the wrong snapshot, apart in a few compares.
	keys []int32
}

// NewJoinIndex indexes snaps, captured in order from one reference run
// that executed goldenDyn instructions and ended OK. It returns nil when
// snaps is empty.
func NewJoinIndex(snaps []*Snapshot, goldenDyn uint64) *JoinIndex {
	if len(snaps) == 0 {
		return nil
	}
	prog := snaps[0].prog
	j := &JoinIndex{prog: prog, goldenDyn: goldenDyn, blocks: make([]*blockJoin, prog.NumBlocks)}
	for _, s := range snaps {
		blk := s.frames[len(s.frames)-1].blk
		bj := j.blocks[blk.ID]
		if bj == nil {
			bj = &blockJoin{}
			for _, in := range blk.Ref.Instrs[:blk.NPhi] {
				bj.keys = append(bj.keys, int32(in.ID))
			}
			j.blocks[blk.ID] = bj
		}
		bj.snaps = append(bj.snaps, s)
	}
	for _, bj := range j.blocks {
		if bj == nil {
			continue
		}
		first := bj.snaps[0].top().regs
		for r := range first {
			if slices.Contains(bj.keys, int32(r)) {
				continue
			}
			for _, s := range bj.snaps[1:] {
				if s.top().regs[r] != first[r] {
					bj.keys = append(bj.keys, int32(r))
					break
				}
			}
		}
	}
	return j
}

// top returns the snapshot's innermost frame.
func (s *Snapshot) top() *frameSnap { return &s.frames[len(s.frames)-1] }

// tryJoin runs at a phi-edge entry into a block holding reference
// snapshots, after the fault fired. It compares the state with the one
// or two snapshots nearest DynCount (the closer first), and on a match
// whose golden suffix fits the instruction budget records the snapshot's
// count and reports true. A run whose fault shifted control flow meets
// the reference state at a different count; the budget check keeps the
// join exact, since the full run would have hung where the shifted
// suffix crosses MaxDynInstrs.
func (vm *machine) tryJoin(bj *blockJoin, fr *frame) bool {
	now := vm.ctx.DynCount
	snaps := bj.snaps
	i := sort.Search(len(snaps), func(i int) bool { return snaps[i].dynCount > now })
	near, far := i-1, i
	if near < 0 || (far < len(snaps) && snaps[far].dynCount-now < now-snaps[near].dynCount) {
		near, far = far, near
	}
	for _, k := range [2]int{near, far} {
		if k < 0 || k >= len(snaps) {
			continue
		}
		s := snaps[k]
		if !sameRegs(fr.regs, s.top().regs, bj.keys) || !vm.sameState(s) {
			continue
		}
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
// classification — everything but the two dynamic counters: the output
// line count and bytes, call depth, position and registers of every
// frame, alloca placement, and the address space. The counters only
// number instructions; the hang budget they feed is checked by the
// caller. Cheap scalar checks run first and the memory bytes last, so a
// diverged run is usually rejected in a few compares.
func (vm *machine) sameState(s *Snapshot) bool {
	ctx := vm.ctx
	if ctx.lines != s.lines || ctx.output.Len() != len(s.output) ||
		ctx.depth != s.depth || len(vm.frames) != len(s.frames) {
		return false
	}
	for i, fr := range vm.frames {
		fs := &s.frames[i]
		if fr.fn != fs.fn || fr.blk != fs.blk || fr.dip != fs.dip ||
			!slices.Equal(fr.regs, fs.regs) || !slices.Equal(fr.params, fs.params) ||
			len(fr.allocas) != len(fs.allocas) {
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
