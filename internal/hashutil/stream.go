package hashutil

// Stream is the repository's one pseudo-random stream: xorshift64*. It
// is deterministic per seed, so every sampled quantity built on it — FI
// targets, reservoir samples, the sampled model estimate, generated
// programs — is reproducible run to run.
type Stream struct{ s uint64 }

// NewStream starts a stream at state seed. A zero state is a fixed point
// of xorshift (it yields only zeros), so callers map seed 0 to their own
// nonzero default first.
func NewStream(seed uint64) *Stream { return &Stream{s: seed} }

// Next advances the stream and returns its next 64-bit value.
func (r *Stream) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n) without modulo bias: a power of
// two is masked, and otherwise a draw below 2^64 mod n (the truncated
// final bucket) is redrawn, fewer than one redraw expected for every n.
// It panics on n == 0.
func (r *Stream) Intn(n uint64) uint64 {
	if n == 0 {
		panic("hashutil: Intn(0)")
	}
	if n&(n-1) == 0 {
		return r.Next() & (n - 1)
	}
	min := -n % n // 2^64 mod n
	for {
		if v := r.Next(); v >= min {
			return v % n
		}
	}
}

// Mix64 is the splitmix64 finalizer: it avalanches h so that nearby
// inputs (adjacent IDs or slots, one seed) give unrelated outputs.
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Fold continues an FNV-1a hash h over one 64-bit value taken as a single
// unit: (h ^ v) · prime.
func Fold(h, v uint64) uint64 { return (h ^ v) * prime64 }
