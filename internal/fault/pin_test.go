package fault

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// The pins in this file were recorded from the sampling code before its
// pseudo-random stream and seed mixers moved into internal/hashutil. Each
// covers seed 0 (the stream's zero-seed default) and one nonzero seed;
// any change to how fault draws its samples must reproduce them exactly.

// specStrings renders sampled specs as "pos inst=N bit=B" lines.
func specStrings(specs []trialSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = fmt.Sprintf("%s inst=%d bit=%d", s.instr.Pos(), s.instance, s.bit)
	}
	return out
}

func TestPinSampleRandom(t *testing.T) {
	want := map[uint64][]string{
		0: {
			"main:right.join:#50 inst=76 bit=23",
			"main:right.then:#35 inst=365 bit=10",
			"main:copy.head:#53 inst=85 bit=0",
			"main:col.body:#21 inst=276 bit=0",
			"main:left.then:#25 inst=28 bit=3",
			"main:left.then:#26 inst=28 bit=25",
		},
		1234: {
			"main:right.join:#48 inst=269 bit=31",
			"main:col.head:#16 inst=17 bit=27",
			"main:copy.body:#56 inst=226 bit=18",
			"main:right.join:#48 inst=320 bit=37",
			"main:right.join:#47 inst=257 bit=2",
			"main:col.body:#21 inst=209 bit=0",
		},
	}
	for _, seed := range []uint64{0, 1234} {
		inj, err := New(mustProg(t, "pathfinder").Build(), Options{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := specStrings(inj.sampleRandom(6))
		if fmt.Sprint(got) != fmt.Sprint(want[seed]) {
			t.Errorf("seed %d: sampleRandom(6) =\n%#v\nwant\n%#v", seed, got, want[seed])
		}
	}
}

func TestPinCampaignPerInstr(t *testing.T) {
	want := map[uint64][]string{
		0: {
			"main:init.head:#1 inst=42 bit=25",
			"main:init.head:#1 inst=6 bit=57",
			"main:init.head:#1 inst=44 bit=14",
			"main:init.head:#2 inst=38 bit=0",
			"main:init.head:#2 inst=33 bit=0",
			"main:init.head:#2 inst=2 bit=0",
			"main:init.body:#4 inst=20 bit=63",
			"main:init.body:#4 inst=18 bit=40",
			"main:init.body:#4 inst=27 bit=60",
		},
		1234: {
			"main:init.head:#1 inst=32 bit=1",
			"main:init.head:#1 inst=45 bit=44",
			"main:init.head:#1 inst=38 bit=16",
			"main:init.head:#2 inst=17 bit=0",
			"main:init.head:#2 inst=10 bit=0",
			"main:init.head:#2 inst=44 bit=0",
			"main:init.body:#4 inst=44 bit=28",
			"main:init.body:#4 inst=11 bit=13",
			"main:init.body:#4 inst=47 bit=18",
		},
	}
	for _, seed := range []uint64{0, 1234} {
		inj, err := New(mustProg(t, "pathfinder").Build(), Options{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, in := range inj.Targets()[:3] {
			res, err := inj.CampaignPerInstr(context.Background(), in, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range res.Trials {
				got = append(got, fmt.Sprintf("%s inst=%d bit=%d", tr.Instr.Pos(), tr.Instance, tr.Bit))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want[seed]) {
			t.Errorf("seed %d: CampaignPerInstr specs =\n%#v\nwant\n%#v", seed, got, want[seed])
		}
	}
}

func TestPinSeedMixers(t *testing.T) {
	inj, err := New(mustProg(t, "blackscholes").Build(), Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := inj.Targets()
	last := targets[len(targets)-1]
	for _, c := range []struct {
		seed uint64
		want [2]uint64
	}{
		{0, [2]uint64{0x2031ba8017222d2e, 0xd084cf447ffcef74}},
		{1234, [2]uint64{0x3bc2b7b1c74ed648, 0x3b27b4ce56ad1274}},
	} {
		got := [2]uint64{perInstrSeed(c.seed, targets[0]), perInstrSeed(c.seed, last)}
		if got != c.want {
			t.Errorf("perInstrSeed(%d, {%s, %s}) = %#x, want %#x", c.seed, targets[0].Pos(), last.Pos(), got, c.want)
		}
	}
	for _, c := range []struct {
		seed uint64
		slot int
		want uint64
	}{
		{0, 0, 0x3fec4415072f63b9},
		{0, 17, 0x3fe879e2e2056fef},
		{1234, 0, 0x3fecfd7a4d4d2709},
		{1234, 2999, 0x3fe22d0a444768dd},
	} {
		if got := math.Float64bits(slotU(c.seed, c.slot)); got != c.want {
			t.Errorf("slotU(%d, %d) bits = %#x, want %#x", c.seed, c.slot, got, c.want)
		}
	}
}
