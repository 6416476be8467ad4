package interp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trident/internal/ir"
)

func TestMemoryAllocateAndAccess(t *testing.T) {
	m := NewMemory()
	s := m.Allocate("a", 16)
	if s.Base == 0 {
		t.Fatal("segment base should not be 0")
	}
	if !m.Store(ir.I32, s.Base+4, 0xDEADBEEF) {
		t.Fatal("in-bounds store failed")
	}
	got, ok := m.load(s.Base+4, uint64(ir.I32.Bytes()))
	if !ok || got != 0xDEADBEEF {
		t.Fatalf("load = %#x, %v", got, ok)
	}
}

func TestMemoryLittleEndianOverlap(t *testing.T) {
	m := NewMemory()
	s := m.Allocate("a", 8)
	m.Store(ir.I64, s.Base, 0x0807060504030201)
	b, ok := m.load(s.Base+2, uint64(ir.I8.Bytes()))
	if !ok || b != 0x03 {
		t.Fatalf("byte 2 = %#x", b)
	}
	h, ok := m.load(s.Base+4, uint64(ir.I16.Bytes()))
	if !ok || h != 0x0605 {
		t.Fatalf("half at 4 = %#x", h)
	}
}

func TestMemoryOutOfBounds(t *testing.T) {
	m := NewMemory()
	s := m.Allocate("a", 8)
	cases := []struct {
		name string
		addr uint64
		t    ir.Type
	}{
		{"below", s.Base - 1, ir.I8},
		{"straddle end", s.End() - 2, ir.I32},
		{"far away", 0x123456789A, ir.I8},
		{"null", 0, ir.I8},
		{"wrap", ^uint64(0) - 1, ir.I64},
	}
	for _, c := range cases {
		if _, ok := m.load(c.addr, uint64(c.t.Bytes())); ok {
			t.Errorf("%s: load should trap", c.name)
		}
		if m.Store(c.t, c.addr, 1) {
			t.Errorf("%s: store should trap", c.name)
		}
	}
}

func TestMemoryGapBetweenSegments(t *testing.T) {
	m := NewMemory()
	a := m.Allocate("a", 8)
	b := m.Allocate("b", 8)
	if a.End() >= b.Base {
		t.Fatal("segments should not be adjacent")
	}
	if _, ok := m.load(a.End(), uint64(ir.I8.Bytes())); ok {
		t.Error("gap access should trap")
	}
}

func TestMemoryRelease(t *testing.T) {
	m := NewMemory()
	a := m.Allocate("a", 8)
	b := m.Allocate("b", 8)
	m.Release(a)
	if _, ok := m.load(a.Base, uint64(ir.I8.Bytes())); ok {
		t.Error("released segment should trap")
	}
	if _, ok := m.load(b.Base, uint64(ir.I8.Bytes())); !ok {
		t.Error("live segment should still be accessible")
	}
	if m.CurrentBytes() != 8 {
		t.Errorf("CurrentBytes = %d, want 8", m.CurrentBytes())
	}
	if len(m.segments) != 1 {
		t.Errorf("%d live segments, want 1", len(m.segments))
	}
}

func TestMemoryPeakTracksHighWater(t *testing.T) {
	m := NewMemory()
	a := m.Allocate("a", 100)
	m.Allocate("b", 50)
	m.Release(a)
	m.Allocate("c", 10)
	if m.PeakBytes() != 150 {
		t.Errorf("PeakBytes = %d, want 150", m.PeakBytes())
	}
}

func TestMemoryZeroSizeAllocation(t *testing.T) {
	m := NewMemory()
	a := m.Allocate("a", 0)
	b := m.Allocate("b", 0)
	if a.Base == b.Base {
		t.Error("zero-size allocations should get distinct addresses")
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory()
	s := m.Allocate("a", 64)
	f := func(off8 uint8, bits uint64) bool {
		off := uint64(off8 % 56)
		if !m.Store(ir.I64, s.Base+off, bits) {
			return false
		}
		got, ok := m.load(s.Base+off, uint64(ir.I64.Bytes()))
		return ok && got == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryNarrowTypeTruncates(t *testing.T) {
	m := NewMemory()
	s := m.Allocate("a", 8)
	m.Store(ir.I64, s.Base, 0)
	m.Store(ir.I8, s.Base, 0x1FF) // only low byte lands
	got, _ := m.load(s.Base, uint64(ir.I64.Bytes()))
	if got != 0xFF {
		t.Errorf("after i8 store, word = %#x, want 0xff", got)
	}
}

// TestMemoryLastSegmentCache checks the segment find tries first: it
// must never outlive its segment, never let a wrapping range through,
// and never carry into a clone, whose accesses go to its own copies.
func TestMemoryLastSegmentCache(t *testing.T) {
	m := NewMemory()
	a := m.Allocate("a", 8)
	b := m.Allocate("b", 8)
	if !m.Store(ir.I64, a.Base, 7) {
		t.Fatal("store into a trapped")
	}
	m.Release(a)
	if _, ok := m.load(a.Base, uint64(ir.I8.Bytes())); ok {
		t.Error("a released segment's old range is still accessible")
	}
	if m.Store(ir.I8, a.Base+7, 1) {
		t.Error("a store into a released segment's old range succeeded")
	}

	// Near the top of the address space: with b cached, a range that
	// wraps past MaxUint64 must trap rather than compare as inside b.
	if _, ok := m.load(b.Base, uint64(ir.I64.Bytes())); !ok {
		t.Fatal("load from b trapped")
	}
	for _, addr := range []uint64{^uint64(0), ^uint64(0) - 3, ^uint64(0) - 7, ^uint64(0) - 16} {
		if _, ok := m.load(addr, uint64(ir.I64.Bytes())); ok {
			t.Errorf("load of 8 bytes at %#x succeeded", addr)
		}
		if m.Store(ir.I64, addr, 1) {
			t.Errorf("store of 8 bytes at %#x succeeded", addr)
		}
	}

	if !m.Store(ir.I64, b.Base, 1) {
		t.Fatal("store into b trapped")
	}
	c, _ := m.Clone()
	if c.last != nil {
		t.Fatal("the clone starts with a cached segment")
	}
	if !c.Store(ir.I64, b.Base, 2) {
		t.Fatal("store into the clone trapped")
	}
	if got, _ := m.load(b.Base, uint64(ir.I64.Bytes())); got != 1 {
		t.Errorf("the original reads %d after a store into its clone, want 1", got)
	}
	if got, _ := c.load(b.Base, uint64(ir.I64.Bytes())); got != 2 {
		t.Errorf("the clone reads %d, want 2", got)
	}
}

// validFlipTraps counts the single-bit flips of addr whose access find
// places in no live segment: the definition TrappingFlips must reproduce.
func validFlipTraps(m *Memory, addr, size uint64) int {
	n := 0
	for bit := 0; bit < 64; bit++ {
		if m.find(addr^(1<<uint(bit)), size) == nil {
			n++
		}
	}
	return n
}

// flipProbeAddrs returns addresses around every segment edge, the top and
// bottom of the address space, and random addresses inside and outside
// the segments.
func flipProbeAddrs(m *Memory, rnd *rand.Rand) []uint64 {
	addrs := []uint64{0, 1, memoryBase, ^uint64(0), ^uint64(0) - 7, ^uint64(0) - 8, 1 << 63, 1<<63 - 1}
	for _, s := range m.segments {
		for _, a := range []uint64{s.Base - 1, s.Base, s.Base + 1, s.End() - 8, s.End() - 1, s.End(), s.End() + 1} {
			addrs = append(addrs, a)
		}
		addrs = append(addrs, s.Base+uint64(rnd.Int63n(int64(s.Size))))
	}
	for i := 0; i < 16; i++ {
		addrs = append(addrs, rnd.Uint64(), rnd.Uint64()>>uint(rnd.Intn(64)))
	}
	return addrs
}

// TestTrappingFlipsMatchesValid checks TrappingFlips against 64 find
// calls on random layouts: allocated and partly released ones, sparse
// ones spread over the whole 64-bit space (whose high-bit flips land in
// other segments), an empty memory, and accesses near the top of the
// address space whose flipped range overflows addr+size.
func TestTrappingFlipsMatchesValid(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	layouts := []*Memory{NewMemory()}
	for i := 0; i < 40; i++ {
		m := NewMemory()
		var live []*Segment
		for j := 0; j < 1+rnd.Intn(12); j++ {
			live = append(live, m.Allocate("s", uint64(rnd.Intn(300))))
		}
		for _, s := range live {
			if rnd.Intn(3) == 0 {
				m.Release(s)
			}
		}
		layouts = append(layouts, m)
	}
	for i := 0; i < 40; i++ {
		// Sparse: ascending bases drawn over the whole address space,
		// one segment ending at the top of it.
		m := NewMemory()
		base := uint64(rnd.Intn(1 << 20))
		for j := 0; j < 1+rnd.Intn(8); j++ {
			size := uint64(1 + rnd.Intn(1<<12))
			m.segments = append(m.segments, &Segment{Base: base, Size: size})
			base += size + uint64(rnd.Int63n(1<<59))
		}
		if rnd.Intn(2) == 0 {
			m.segments = append(m.segments, &Segment{Base: ^uint64(0) - 64, Size: 64})
		}
		layouts = append(layouts, m)
	}
	for li, m := range layouts {
		for _, addr := range flipProbeAddrs(m, rnd) {
			for _, size := range []uint64{0, 1, 2, 4, 8, 16} {
				if got, want := m.TrappingFlips(addr, size), validFlipTraps(m, addr, size); got != want {
					t.Fatalf("layout %d (%d segments): TrappingFlips(%#x, %d) = %d, find rejects %d",
						li, len(m.segments), addr, size, got, want)
				}
			}
		}
	}
	if got := NewMemory().TrappingFlips(memoryBase, 8); got != 64 {
		t.Errorf("empty memory: %d trapping flips, want 64", got)
	}
}

// TestMemoryWidths stores and loads at every access width, each with the
// segment already the last-hit one and not: exactly the access's bytes
// change, little-endian, and a load returns them all.
func TestMemoryWidths(t *testing.T) {
	for _, ty := range []ir.Type{ir.I1, ir.I8, ir.I16, ir.I32, ir.I64, ir.F32, ir.F64, ir.Ptr} {
		for _, cached := range []bool{false, true} {
			m := NewMemory()
			s := m.Allocate("a", 32)
			other := m.Allocate("b", 8)
			for i := uint64(0); i < 32; i++ {
				m.Store(ir.I8, s.Base+i, 0xAA)
			}
			if !cached {
				m.load(other.Base, uint64(ir.I8.Bytes())) // make b the last-hit segment
			}
			n := uint64(ty.Bytes())
			const bits = 0x8877665544332211
			if !m.Store(ty, s.Base+5, bits) {
				t.Fatalf("%v: in-bounds store trapped", ty)
			}
			if !cached {
				m.load(other.Base, uint64(ir.I8.Bytes()))
			}
			want := uint64(bits)
			if n < 8 {
				want &= 1<<(8*n) - 1
			}
			if got, ok := m.load(s.Base+5, uint64(ty.Bytes())); !ok || got != want {
				t.Errorf("%v (cached %v): load = %#x %v, want %#x", ty, cached, got, ok, want)
			}
			for i := uint64(0); i < 32; i++ {
				b, _ := m.load(s.Base+i, uint64(ir.I8.Bytes()))
				want := uint64(0xAA)
				if i >= 5 && i < 5+n {
					want = bits >> (8 * (i - 5)) & 0xFF
				}
				if b != want {
					t.Errorf("%v (cached %v): byte %d = %#x, want %#x", ty, cached, i, b, want)
				}
			}
		}
	}
}

// TestMemoryStraddleAndWrap checks every width against the segment end
// and the top of the address space, with the segment last-hit and not:
// an access ending at the segment end succeeds, one byte further traps,
// and an address whose range wraps past MaxUint64 traps.
func TestMemoryStraddleAndWrap(t *testing.T) {
	for _, ty := range []ir.Type{ir.I8, ir.I16, ir.I32, ir.I64} {
		n := uint64(ty.Bytes())
		for _, cached := range []bool{false, true} {
			m := NewMemory()
			s := m.Allocate("a", 16)
			other := m.Allocate("b", 8)
			warm := func() {
				if cached {
					m.load(s.Base, uint64(ir.I8.Bytes()))
				} else {
					m.load(other.Base, uint64(ir.I8.Bytes()))
				}
			}
			warm()
			if _, ok := m.load(s.End()-n, uint64(ty.Bytes())); !ok {
				t.Errorf("%v (cached %v): load ending at the segment end trapped", ty, cached)
			}
			for k := uint64(1); k <= n; k++ {
				warm()
				if _, ok := m.load(s.End()-n+k, uint64(ty.Bytes())); ok {
					t.Errorf("%v (cached %v): load %d bytes past the end succeeded", ty, cached, k)
				}
				warm()
				if m.Store(ty, s.End()-n+k, 1) {
					t.Errorf("%v (cached %v): store %d bytes past the end succeeded", ty, cached, k)
				}
			}
			for k := uint64(0); k < n; k++ {
				warm()
				addr := ^uint64(0) - k
				if _, ok := m.load(addr, uint64(ty.Bytes())); ok {
					t.Errorf("%v (cached %v): load at %#x succeeded", ty, cached, addr)
				}
				warm()
				if m.Store(ty, addr, 1) {
					t.Errorf("%v (cached %v): store at %#x succeeded", ty, cached, addr)
				}
			}
		}
	}
}
