package hashutil

import (
	"hash/fnv"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
)

// TestStringMatchesStdlibFNV pins the hash to the reference FNV-1a the
// standard library implements: the constants here must never drift,
// because on-disk cache entries and checkpoints embed these hashes.
func TestStringMatchesStdlibFNV(t *testing.T) {
	for _, s := range []string{"", "a", "trident", "module \"x\"\n", "\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := String(s), h.Sum64(); got != want {
			t.Errorf("String(%q) = %#x, want %#x", s, got, want)
		}
		if got, want := Bytes([]byte(s)), h.Sum64(); got != want {
			t.Errorf("Bytes(%q) = %#x, want %#x", s, got, want)
		}
		if Output(s) != String(s) {
			t.Errorf("Output(%q) != String(%q)", s, s)
		}
	}
}

func TestHex(t *testing.T) {
	if got := Hex(0); got != "0000000000000000" {
		t.Errorf("Hex(0) = %q", got)
	}
	if got := Hex(0xdeadbeef); got != "00000000deadbeef" {
		t.Errorf("Hex(0xdeadbeef) = %q", got)
	}
}

// TestModuleHashIsCanonical checks the content-address property on
// every kernel: the module hash is the hash of the printed text, and
// hashing the same module twice is stable.
func TestModuleHashIsCanonical(t *testing.T) {
	for _, p := range progs.All() {
		m := p.Build()
		if got, want := Module(m), String(ir.Print(m)); got != want {
			t.Errorf("%s: Module = %#x, want hash of printed text %#x", p.Name, got, want)
		}
		if Module(m) != Module(m) {
			t.Errorf("%s: Module hash unstable", p.Name)
		}
	}
}
