package crosscheck

import (
	"fmt"
	"testing"

	"trident/internal/irgen"
)

// TestCheckRejoin runs the rejoin oracle over Frames-shaped random
// programs: snapshot replay must match full re-execution trial for
// trial, and some trials must actually rejoin, or the oracle would
// compare full-length replays only.
func TestCheckRejoin(t *testing.T) {
	var trials, rejoined uint64
	for seed := uint64(1); seed <= 20; seed++ {
		name := fmt.Sprintf("rand-%d/frames", seed)
		ms, r, err := CheckRejoin(name, irgen.Generate(irgen.Config{Seed: seed, Frames: true}), seed, rejoinTrials)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			t.Error(m)
		}
		trials += rejoinTrials
		rejoined += r
	}
	if rejoined == 0 {
		t.Fatalf("none of %d snapshot-replay trials rejoined", trials)
	}
	t.Logf("%d of %d trials rejoined", rejoined, trials)
}
