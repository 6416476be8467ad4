package profile

import (
	"testing"

	"trident/internal/progs"
)

// seedZeroFingerprints extends profileFingerprints to profile seed 0, the
// reservoir stream's zero-seed default, recorded before the stream moved
// into internal/hashutil.
var seedZeroFingerprints = map[string]uint64{
	"libquantum":   0xd2deddc5c0856c7b,
	"blackscholes": 0x34ccb5bcc15e71c5,
	"sad":          0x9df223e173aa061f,
	"bfs-parboil":  0x16bf79298924482f,
	"hercules":     0xbbbf9adb1386fe7,
	"lulesh":       0x3dca5a35d74ad9be,
	"puremd":       0xe3e3edce02d41a50,
	"nw":           0x3a5890f4ce76dd6c,
	"pathfinder":   0x8ab4db59421aecef,
	"hotspot":      0x41dd164a08ae0b77,
	"bfs-rodinia":  0x7f04016f28ec6163,
}

func TestProfileFingerprintSeedZero(t *testing.T) {
	for _, prog := range progs.All() {
		p, err := Collect(prog.Build(), Options{Seed: 0})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if got, want := fingerprint(p), seedZeroFingerprints[prog.Name]; got != want {
			t.Errorf("%s: fingerprint (seed 0) = %#x, want %#x", prog.Name, got, want)
		}
	}
}
