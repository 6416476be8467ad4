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
	"encoding/binary"
	"fmt"

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

// holds reports whether [addr, addr+n) lies inside s. off <= Size rules
// out an addr below Base (the subtraction wraps) and n <= Size-off an
// access running past the end, overflowing or not.
func (s *Segment) holds(addr, n uint64) bool {
	off := addr - s.Base
	return off <= s.Size && n <= s.Size-off
}

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

// find returns the segment containing [addr, addr+size), or nil, by
// binary search, and remembers it as the last-hit segment. Loads and
// stores mostly hit the segment the previous access hit, so they try
// that one before calling find.
func (m *Memory) find(addr, size uint64) *Segment {
	i := m.segmentAt(addr)
	if i < 0 {
		return nil
	}
	s := m.segments[i]
	if !s.holds(addr, size) {
		return nil
	}
	m.last = s
	return s
}

// segmentAt returns the index of the last segment with Base <= addr, or
// -1 when every segment starts above addr.
func (m *Memory) segmentAt(addr uint64) int {
	lo, hi := 0, len(m.segments)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.segments[mid].Base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// TrappingFlips counts the bit positions, of all 64, whose single-bit flip
// of addr makes the access [addr, addr+size) trap: the flips b for which
// find(addr^1<<b, size) finds no live segment. A flipped access outside [first
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
		if end > m.segments[m.segmentAt(a)].End() {
			n++
		}
	}
	return n
}

// Load reads a little-endian value of width t.Bytes() from addr. The
// returned bool is false when the access traps.
func (m *Memory) Load(t ir.Type, addr uint64) (uint64, bool) {
	return m.load(addr, uint64(t.Bytes()))
}

// Store writes a little-endian value of width t.Bytes() to addr. The
// returned bool is false when the access traps.
func (m *Memory) Store(t ir.Type, addr, bits uint64) bool {
	return m.store(addr, uint64(t.Bytes()), bits)
}

// load reads the little-endian value of n bytes (8, 4, 2, 1 or 0) at
// addr, trying the last-hit segment before find; ok is false when the
// access traps.
func (m *Memory) load(addr, n uint64) (bits uint64, ok bool) {
	s := m.last
	if s == nil || !s.holds(addr, n) {
		if s = m.find(addr, n); s == nil {
			return 0, false
		}
	}
	return readLE(s.data[addr-s.Base:], n), true
}

// store writes bits as the little-endian value of n bytes at addr,
// trying the last-hit segment as load does; it reports false when the
// access traps.
func (m *Memory) store(addr, n, bits uint64) bool {
	s := m.last
	if s == nil || !s.holds(addr, n) {
		if s = m.find(addr, n); s == nil {
			return false
		}
	}
	writeLE(s.data[addr-s.Base:], n, bits)
	return true
}

// readLE decodes the little-endian value of the first n bytes of b.
func readLE(b []byte, n uint64) uint64 {
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	return 0
}

// writeLE encodes the low n bytes of bits little-endian into b.
func writeLE(b []byte, n, bits uint64) {
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(b, bits)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(bits))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(bits))
	case 1:
		b[0] = byte(bits)
	}
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

// String summarizes the memory map for diagnostics.
func (m *Memory) String() string {
	return fmt.Sprintf("memory{%d segments, %d bytes live, %d peak}",
		len(m.segments), m.current, m.peak)
}
