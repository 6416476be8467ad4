// Package hashutil is the repository's single home for content hashing.
// Every subsystem that fingerprints program text, program output, or
// module structure — the cross-check oracle, campaign checkpoints, the
// server's result cache — uses these helpers, so two subsystems can
// never disagree about what "the hash of this module" means.
//
// All hashes are 64-bit FNV-1a. Module hashes are defined over the
// *canonical printed form* (internal/ir's printer, whose output is a
// parse/print fixed point): two modules hash equal exactly when they
// print identically, which makes the hashes content addresses — stable
// across process restarts, reorderable in maps, and invariant under
// print→parse round trips (pinned by the cache-key stability suite and
// the FuzzCacheKeyCanonical fuzz target). DESIGN.md §5h lists every key
// built from these helpers.
package hashutil

import (
	"fmt"

	"trident/internal/ir"
)

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// String returns the 64-bit FNV-1a hash of s.
func String(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Bytes returns the 64-bit FNV-1a hash of b.
func Bytes(b []byte) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// Output returns the hash of a program's output text. It is String under
// a name that says what is being hashed: fault.Detail.OutputHash and the
// cross-check result summaries both use it, so their output fingerprints
// are interchangeable.
func Output(s string) uint64 { return String(s) }

// Module returns the content address of a whole module: the hash of its
// canonical printed text. Used to key whole-campaign artifacts (the
// server's result cache, checkpoint validation) where any edit anywhere
// must invalidate.
func Module(m *ir.Module) uint64 { return String(ir.Print(m)) }

// Hex renders a hash as the fixed-width lowercase hex string used in
// cache keys and on-disk file names.
func Hex(h uint64) string { return fmt.Sprintf("%016x", h) }
