package hashutil_test

import (
	"testing"

	"trident/internal/hashutil"
	"trident/internal/ir"
	"trident/internal/progs"
)

// FuzzCacheKeyCanonical feeds arbitrary IR text (seeded with the kernel
// sources) to the parser: anything that parses must hash identically
// after a print→parse round trip. This is the cache-key canonicality
// contract — a module and its serialized form must always address the
// same result-cache entry and validate against the same checkpoint
// header — probed over a far wider input space than the hand-written
// corpus.
func FuzzCacheKeyCanonical(f *testing.F) {
	for _, p := range progs.All() {
		f.Add(ir.Print(p.Build()))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			t.Skip() // unparseable input is out of scope; the parser fuzzer owns it
		}
		m2, err := ir.Parse(ir.Print(m))
		if err != nil {
			t.Fatalf("canonical print does not reparse: %v", err)
		}
		if h, h2 := hashutil.Module(m), hashutil.Module(m2); h != h2 {
			t.Fatalf("module hash not canonical: %s → %s", hashutil.Hex(h), hashutil.Hex(h2))
		}
	})
}
