package crosscheck

import (
	"fmt"
	"testing"

	"trident/internal/progs"
	"trident/internal/protect"
)

// TestPinProtectTrials pins the protection invariant's target picks on one
// kernel at seed 0 and one nonzero seed. They were recorded before the
// pick stream moved into internal/hashutil and the counting run moved to
// the reference evaluator; neither change may move a pick.
func TestPinProtectTrials(t *testing.T) {
	want := map[uint64][]string{
		0: {
			"main:left.then:#51 inst=372 bit=7",
			"main:copy.head:#95 inst=65 bit=34",
			"main:min.head:#118 inst=44 bit=6",
			"main:right.join:#85 inst=417 bit=19",
			"main:min.body:#127 inst=41 bit=7",
			"main:init.head:#3 inst=48 bit=0",
		},
		77: {
			"main:left.join:#55 inst=247 bit=16",
			"main:copy.body:#106 inst=229 bit=1",
			"main:right.join:#81 inst=267 bit=22",
			"main:right.then:#69 inst=356 bit=2",
			"main:right.join:#85 inst=291 bit=21",
			"main:right.join:#88 inst=55 bit=46",
		},
	}
	p, err := progs.ByName("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	prot, err := protect.Apply(m, ProtectEligible(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{0, 77} {
		picks, err := protectTrials(prot, seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, pk := range picks {
			got = append(got, fmt.Sprintf("%s inst=%d bit=%d", pk.target.Pos(), pk.instance, pk.bit))
		}
		if fmt.Sprint(got) != fmt.Sprint(want[seed]) {
			t.Errorf("seed %d: picks =\n%#v\nwant\n%#v", seed, got, want[seed])
		}
	}
}
