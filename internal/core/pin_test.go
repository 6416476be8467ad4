package core

import (
	"math"
	"testing"
)

// TestPinSampledOverallSDC pins the IEEE bits of the sampled estimator,
// OverallSDC(3000, seed), on two kernels at seed 0 (the sampling stream's
// zero-seed default) and one nonzero seed. The values were recorded before
// the stream moved into internal/hashutil; the draws must not change.
func TestPinSampledOverallSDC(t *testing.T) {
	want := map[string][2]uint64{
		"pathfinder": {0x3fd188a4e603fef0, 0x3fd1d4f5e9c7f748},
		"hotspot":    {0x3fdb4338f179b6d6, 0x3fdaebcd863f4a51},
	}
	for name, w := range want {
		m := New(kernelProfile(t, name), TridentConfig())
		got := [2]uint64{
			math.Float64bits(m.OverallSDC(3000, 0).SDC),
			math.Float64bits(m.OverallSDC(3000, 99).SDC),
		}
		if got != w {
			t.Errorf("%s: OverallSDC(3000, {0, 99}) bits = %#x, want %#x", name, got, w)
		}
	}
}
