package irgen

import (
	"testing"

	"trident/internal/hashutil"
)

// TestPinModuleHashes pins the module hash of the programs generated at
// seeds 0–20, with and without Frames. They were recorded before the
// generator's stream moved into internal/hashutil; the crosscheck corpus
// is these programs, so they must not change.
func TestPinModuleHashes(t *testing.T) {
	want := [21][2]uint64{
		{0xa6c58de2dc48e715, 0x797511bf1b426ddd}, // seed 0
		{0x71753a2fbcf7114, 0x76226d4434359cf4},  // seed 1
		{0x6b3f84fce5fce4e6, 0x3feea7482982f534}, // seed 2
		{0x4a56492b4cfb093d, 0x6c93100834748c5e}, // seed 3
		{0x8e360f90e293c3f7, 0x22c15ef76da4346b}, // seed 4
		{0xec595696305ade40, 0x73b2358a848c325b}, // seed 5
		{0x32a547d5fe8bf7ef, 0x1d2476c921508ff4}, // seed 6
		{0xa80edba3b2c2ff73, 0x189dc86c96eeae82}, // seed 7
		{0x9ee5a3398caf1bc, 0x4b3630c5fd744b64},  // seed 8
		{0xe154f52e3bcb7e34, 0xa85caa2078ecb17b}, // seed 9
		{0x779165a2eb9c79f6, 0x3993ffb4e8861de3}, // seed 10
		{0x95c2195b1febd670, 0x5c8c01886432a00e}, // seed 11
		{0xec8d91fbdbf05448, 0xc117bfcb15945625}, // seed 12
		{0x6c42d2b0f2251924, 0x373026ee17fc4953}, // seed 13
		{0x3a1d5ac6ff4a977f, 0x656790815d983356}, // seed 14
		{0x8135a226d0fbbca1, 0xe16abc45ca91fba},  // seed 15
		{0xfb5ff5e1d569a486, 0x76c8ea4a734f68f7}, // seed 16
		{0x17da00f1331440fb, 0x509f633dfdfca45},  // seed 17
		{0x2859bf30e2a52759, 0x45adfa841d2855d6}, // seed 18
		{0x55401158d2916740, 0x403754dd75f4a3ec}, // seed 19
		{0x90ecd1c94be5767b, 0xe9a07f5385123383}, // seed 20
	}
	for seed := uint64(0); seed <= 20; seed++ {
		got := [2]uint64{
			hashutil.Module(Generate(Config{Seed: seed})),
			hashutil.Module(Generate(Config{Seed: seed, Frames: true})),
		}
		if got != want[seed] {
			t.Errorf("seed %d: module hashes (plain, frames) = %#x, want %#x", seed, got, want[seed])
		}
	}
}
