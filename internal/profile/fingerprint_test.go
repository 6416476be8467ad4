package profile

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
)

// profileFingerprints pins a hash of every Profile field of each paper
// kernel at profile seeds 1 and 7. They were recorded before the
// collector's tallies moved from maps keyed by instruction into dense
// per-function slices; any change to how the collector stores its state
// must reproduce them exactly.
var profileFingerprints = map[string][2]uint64{
	"libquantum":   {0x1d5a3d795da8bdd7, 0x60dd241e13cb4886},
	"blackscholes": {0x34ccb5bcc15e71c5, 0x34ccb5bcc15e71c5},
	"sad":          {0xfc6ef5867c338178, 0x09e7707be9c5f364},
	"bfs-parboil":  {0xe1f15bac9afcc890, 0x8802b87f6d840370},
	"hercules":     {0x6b8baf452442b63e, 0x4f339cfdda31640c},
	"lulesh":       {0x7fb6c644acaf9381, 0x31cf455b32468424},
	"puremd":       {0x9ecaa98ee05b7ae3, 0x910ed4fa3dd07143},
	"nw":           {0x2cc2e3f341486c11, 0x8037f6a75f66c2fe},
	"pathfinder":   {0xf11b6e1aa46d59d7, 0xd88bcf8842fa269d},
	"hotspot":      {0x230b2b34d93b1c9e, 0xc74beb349fb1576a},
	"bfs-rodinia":  {0x4af4a2969a335705, 0x918753b8df44ea56},
}

// fingerprint hashes p in module instruction order: per instruction its
// ExecCount, BranchTaken and CrashSensitivity entries (presence first),
// its Samples in order and its MemGraph edges in order; then the totals.
func fingerprint(p *Profile) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, f := range p.Module.Funcs {
		put(uint64(len(f.Name)))
		h.Write([]byte(f.Name))
		f.Instrs(func(in *ir.Instr) {
			put(uint64(in.ID))
			if n, ok := p.ExecCount[in]; ok {
				put(1, n)
			} else {
				put(0)
			}
			if bt, ok := p.BranchTaken[in]; ok {
				put(1, bt[0], bt[1])
			} else {
				put(0)
			}
			if s, ok := p.Samples[in]; ok {
				put(1, uint64(len(s)))
				for _, o := range s {
					put(o.LHS, o.RHS)
				}
			} else {
				put(0)
			}
			if c, ok := p.CrashSensitivity[in]; ok {
				put(1, math.Float64bits(c))
			} else {
				put(0)
			}
			if edges, ok := p.MemGraph[in]; ok {
				put(1, uint64(len(edges)))
				for _, e := range edges {
					if e.Store != in {
						put(^uint64(0))
					}
					writeInstrKey(h, e.Load)
					put(e.DynDeps, e.DistinctStores)
				}
			} else {
				put(0)
			}
		})
	}
	put(p.DynMemDeps, p.TotalDynResults, p.PeakMemBytes)
	return h.Sum64()
}

// writeInstrKey identifies an instruction by function name and ID.
func writeInstrKey(h hash.Hash64, in *ir.Instr) {
	h.Write([]byte(in.Block.Fn.Name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(in.ID))
	h.Write(b[:])
}

func TestProfileFingerprint(t *testing.T) {
	for _, prog := range progs.All() {
		var got [2]uint64
		for i, seed := range []uint64{1, 7} {
			p, err := Collect(prog.Build(), Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", prog.Name, seed, err)
			}
			got[i] = fingerprint(p)
		}
		if want := profileFingerprints[prog.Name]; got != want {
			t.Errorf("%s: fingerprint (seed 1, seed 7) = %#x, want %#x", prog.Name, got, want)
		}
	}
}
