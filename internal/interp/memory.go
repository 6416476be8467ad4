// Package interp executes IR modules on a deterministic virtual machine
// with a segmented flat memory, hardware-like trap semantics (out-of-bounds
// access, division by zero), hang detection via an instruction budget, and
// observation hooks. It is the execution substrate for both the profiling
// phase of TRIDENT and the LLFI-style fault-injection campaigns.
// DESIGN.md §5c documents the snapshot-replay machinery and §5f the
// engine, which executes modules pre-lowered by internal/decoded.
package interp

import (
	"bytes"
	"fmt"
	"sort"

	"trident/internal/ir"
)

// Segment is one live allocation in the address space.
type Segment struct {
	Base uint64
	Size uint64
	Name string // global name or "alloca"
	data []byte
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Base + s.Size }

// Memory is a segmented flat address space. Globals are allocated at
// construction; allocas come and go with stack frames. Any access that is
// not fully contained in a live segment traps, modeling a hardware
// exception on reading or writing outside the program's memory (the
// paper's dominant crash cause).
type Memory struct {
	segments []*Segment // sorted by Base
	last     *Segment   // the segment find returned last, or nil
	next     uint64     // next allocation base
	peak     uint64     // peak total allocated bytes
	current  uint64     // current total allocated bytes
}

const (
	// memoryBase is the first allocated address; low addresses always trap,
	// modeling the unmapped page at 0.
	memoryBase = 0x10000
	// segmentGap is the unmapped padding between consecutive segments, so
	// that small address corruptions can land outside any segment.
	segmentGap = 0x100
)

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{next: memoryBase}
}

// Allocate reserves size bytes and returns the new segment. Size zero is
// rounded up to one byte so every allocation has a distinct address.
func (m *Memory) Allocate(name string, size uint64) *Segment {
	if size == 0 {
		size = 1
	}
	s := &Segment{Base: m.next, Size: size, Name: name, data: make([]byte, size)}
	m.next = s.End() + segmentGap
	m.segments = append(m.segments, s) // allocation order keeps Base sorted
	m.current += size
	if m.current > m.peak {
		m.peak = m.current
	}
	return s
}

// Release removes a segment (alloca going out of scope). Subsequent
// accesses to its range trap.
func (m *Memory) Release(s *Segment) {
	for i, seg := range m.segments {
		if seg == s {
			m.segments = append(m.segments[:i], m.segments[i+1:]...)
			m.current -= s.Size
			m.last = nil
			return
		}
	}
}

// find returns the segment containing [addr, addr+size), or nil. Loads
// and stores mostly hit the segment the previous access hit, so that one
// is tried before the binary search.
func (m *Memory) find(addr, size uint64) *Segment {
	end := addr + size
	if end < addr { // overflow
		return nil
	}
	if s := m.last; s != nil && addr >= s.Base && end <= s.End() {
		return s
	}
	// Binary search for the last segment with Base <= addr.
	i := sort.Search(len(m.segments), func(i int) bool {
		return m.segments[i].Base > addr
	})
	if i == 0 {
		return nil
	}
	s := m.segments[i-1]
	if end <= s.End() {
		m.last = s
		return s
	}
	return nil
}

// Valid reports whether [addr, addr+size) lies within a live segment.
func (m *Memory) Valid(addr, size uint64) bool { return m.find(addr, size) != nil }

// TrappingFlips counts the bit positions, of all 64, whose single-bit flip
// of addr makes the access [addr, addr+size) trap: the flips b for which
// Valid(addr^1<<b, size) is false. A flipped access outside [first
// segment base, last segment end) is rejected before any search, and the
// last-hit segment find keeps for the interpreter is left alone.
func (m *Memory) TrappingFlips(addr, size uint64) int {
	if len(m.segments) == 0 {
		return 64
	}
	lo, hi := m.segments[0].Base, m.segments[len(m.segments)-1].End()
	n := 0
	for bit := 0; bit < 64; bit++ {
		a := addr ^ 1<<uint(bit)
		end := a + size
		if end < a || a < lo || end > hi {
			n++
			continue
		}
		// a >= lo, so some segment starts at or below a.
		i := sort.Search(len(m.segments), func(i int) bool {
			return m.segments[i].Base > a
		})
		if end > m.segments[i-1].End() {
			n++
		}
	}
	return n
}

// Load reads a little-endian value of width t.Bytes() from addr. The
// returned bool is false when the access traps.
func (m *Memory) Load(t ir.Type, addr uint64) (uint64, bool) {
	n := uint64(t.Bytes())
	s := m.find(addr, n)
	if s == nil {
		return 0, false
	}
	off := addr - s.Base
	var bits uint64
	for i := uint64(0); i < n; i++ {
		bits |= uint64(s.data[off+i]) << (8 * i)
	}
	return bits, true
}

// Store writes a little-endian value of width t.Bytes() to addr. The
// returned bool is false when the access traps.
func (m *Memory) Store(t ir.Type, addr, bits uint64) bool {
	n := uint64(t.Bytes())
	s := m.find(addr, n)
	if s == nil {
		return false
	}
	off := addr - s.Base
	for i := uint64(0); i < n; i++ {
		s.data[off+i] = byte(bits >> (8 * i))
	}
	return true
}

// Clone returns a deep copy of the address space plus a mapping from each
// live segment to its copy, so frame-held segment pointers can be remapped
// alongside. The allocation cursor is copied too: allocations performed
// after a restore land at the same bases they would have in the original
// run, which is what keeps resumed executions bit-identical.
func (m *Memory) Clone() (*Memory, map[*Segment]*Segment) {
	nm := &Memory{
		segments: make([]*Segment, len(m.segments)),
		next:     m.next,
		peak:     m.peak,
		current:  m.current,
	}
	remap := make(map[*Segment]*Segment, len(m.segments))
	for i, s := range m.segments {
		c := &Segment{Base: s.Base, Size: s.Size, Name: s.Name, data: append([]byte(nil), s.data...)}
		nm.segments[i] = c
		remap[s] = c
	}
	return nm, remap
}

// sameContents reports whether m and o have the same allocation cursor
// and the same live segments — bases, sizes and bytes. Segment layouts
// are compared before any bytes.
func (m *Memory) sameContents(o *Memory) bool {
	if m.next != o.next || len(m.segments) != len(o.segments) {
		return false
	}
	for i, s := range m.segments {
		if s.Base != o.segments[i].Base || s.Size != o.segments[i].Size {
			return false
		}
	}
	for i, s := range m.segments {
		if !bytes.Equal(s.data, o.segments[i].data) {
			return false
		}
	}
	return true
}

// PeakBytes returns the peak total allocated bytes, the quantity the paper
// profiles (via /proc) to derive crash probabilities for corrupted
// addresses.
func (m *Memory) PeakBytes() uint64 { return m.peak }

// CurrentBytes returns the currently allocated byte total.
func (m *Memory) CurrentBytes() uint64 { return m.current }

// NumSegments returns the number of live segments.
func (m *Memory) NumSegments() int { return len(m.segments) }

// String summarizes the memory map for diagnostics.
func (m *Memory) String() string {
	return fmt.Sprintf("memory{%d segments, %d bytes live, %d peak}",
		len(m.segments), m.current, m.peak)
}
