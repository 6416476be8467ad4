package baseline

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"trident/internal/core"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/progs"
)

// modelFingerprints pins, for each paper kernel profiled at seed 7, a hash
// of the model half's per-instruction outputs under the three model
// variants. They were recorded before Algorithm 1 was composed in one
// place for InstrSDC, Explain and the baselines; any change that is meant
// to leave predictions alone must reproduce them bit for bit, and one
// that moves them on purpose re-records them.
var modelFingerprints = map[string]uint64{
	"libquantum":   0x1bb5689c986d807b,
	"blackscholes": 0x2cbeaab6bf800b47,
	"sad":          0x7a91f2864b9f41a9,
	"bfs-parboil":  0x80d9349369191603,
	"hercules":     0xb23720f4ba1fedbf,
	"lulesh":       0x053e42bd84d3ab2b,
	"puremd":       0xfd7971de4c3faaf8,
	"nw":           0xdc6431af2f510ccc,
	"pathfinder":   0x51e05c183991a02a,
	"hotspot":      0x55702320005e88bc,
	"bfs-rodinia":  0x1ddb0e12a27fd34c,
}

// modelFingerprint hashes, per variant and per executed result
// instruction in module order: InstrSDC, InstrCrash, Explain's direct
// share, every store path and (with fc) every branch path in instruction
// order with all its fields, and the PVF and model-crash ePVF values. The
// IEEE bits of every float are hashed.
func modelFingerprint(t *testing.T, prof *profile.Profile) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	key := func(in *ir.Instr) {
		put(uint64(len(in.Block.Fn.Name)))
		h.Write([]byte(in.Block.Fn.Name))
		put(uint64(in.ID))
	}
	bits := math.Float64bits
	byInstr := func(a, b *ir.Instr) int {
		if c := cmp.Compare(a.Block.Fn.Name, b.Block.Fn.Name); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	for _, cfg := range []core.Config{core.TridentConfig(), core.FSFCConfig(), core.FSOnlyConfig()} {
		m := core.New(prof, cfg)
		pvf, epvf := NewPVF(m), NewEPVF(m)
		prof.Module.Instrs(func(in *ir.Instr) {
			if !in.HasResult() || prof.ExecCount[in] == 0 {
				return
			}
			key(in)
			put(bits(m.InstrSDC(in)), bits(m.InstrCrash(in)))
			ex := m.Explain(in)
			put(bits(ex.Direct))
			stores := slices.Clone(ex.Stores)
			slices.SortFunc(stores, func(a, b core.StoreContribution) int { return byInstr(a.Store, b.Store) })
			put(uint64(len(stores)))
			for _, sc := range stores {
				key(sc.Store)
				put(bits(sc.CorruptProb), bits(sc.MemToOutput), bits(sc.Contribution))
			}
			if cfg.EnableFC {
				branches := slices.Clone(ex.Branches)
				slices.SortFunc(branches, func(a, b core.BranchContribution) int { return byInstr(a.Branch, b.Branch) })
				put(uint64(len(branches)))
				for _, bc := range branches {
					key(bc.Branch)
					put(bits(bc.FlipProb), uint64(bc.Stores), uint64(bc.Regs), bits(bc.EffectProb), bits(bc.Contribution))
				}
			} else {
				for _, bc := range ex.Branches {
					if bc.EffectProb != 0 || bc.Contribution != 0 {
						t.Errorf("%s without fc: branch %s contributes %v", in.Pos(), bc.Branch.Pos(), bc.Contribution)
					}
				}
			}
			put(bits(pvf.InstrSDC(in)), bits(epvf.InstrSDC(in)))
		})
	}
	return h.Sum64()
}

// TestModelFingerprint covers every executed result instruction of the 11
// paper kernels under all three variants.
func TestModelFingerprint(t *testing.T) {
	for _, p := range progs.All() {
		prof, err := profile.Collect(p.Build(), profile.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: profile: %v", p.Name, err)
		}
		if got, want := modelFingerprint(t, prof), modelFingerprints[p.Name]; got != want {
			t.Errorf("%s: model fingerprint = %#x, want %#x", p.Name, got, want)
		}
	}
}
