// Package interp executes IR modules on a deterministic virtual machine
// with a segmented flat memory, hardware-like trap semantics (out-of-bounds
// access, division by zero), hang detection via an instruction budget, and
// observation hooks. It is the execution substrate for both the profiling
// phase of TRIDENT and the LLFI-style fault-injection campaigns.
// DESIGN.md §5c documents the snapshot-replay machinery and §5f the
// engine, which executes modules pre-lowered by internal/decoded.
package interp

import (
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
			return
		}
	}
}

// find returns the segment containing [addr, addr+size), or nil.
func (m *Memory) find(addr, size uint64) *Segment {
	// Binary search for the last segment with Base <= addr.
	i := sort.Search(len(m.segments), func(i int) bool {
		return m.segments[i].Base > addr
	})
	if i == 0 {
		return nil
	}
	s := m.segments[i-1]
	if addr+size < addr { // overflow
		return nil
	}
	if addr >= s.Base && addr+size <= s.End() {
		return s
	}
	return nil
}

// Valid reports whether [addr, addr+size) lies within a live segment.
func (m *Memory) Valid(addr, size uint64) bool { return m.find(addr, size) != nil }

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
