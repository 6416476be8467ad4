package fault

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"trident/internal/cache"
	"trident/internal/ir"
	"trident/internal/progs"
)

// The compositional differential suite fences the campaign cache the way
// PRs 2/5/6 fenced snapshots, the decoded engine, and sharding: for every
// kernel and both engines, a campaign replayed from cache — or composed
// from a mix of cached and re-run sections after an edit — must be
// bit-identical to a from-scratch campaign: same per-trial transcripts,
// same tallies, same composed rates and intervals.

// compTranscript renders a compositional result into a byte string
// independent of cache state: one line per trial across sections. Cached
// and live runs of the same campaign must render identically.
func compTranscript(res *CompositionalResult) string {
	var b strings.Builder
	for i := range res.Funcs {
		fc := &res.Funcs[i]
		fmt.Fprintf(&b, "@%s w=%d n=%d\n", fc.Name, fc.Weight, fc.N)
		for j, rec := range fc.Records {
			fmt.Fprintf(&b, "  %d %d inst=%d bit=%d %s lat=%d\n",
				j, rec.Instr, rec.Instance, rec.Bit, rec.Outcome, rec.Latency)
		}
	}
	fmt.Fprintf(&b, "sdc=%v lo=%v hi=%v trials=%d classified=%d\n",
		res.Composed.SDC, res.Composed.SDCLo, res.Composed.SDCHi,
		res.Composed.Trials, res.Composed.Classified)
	return b.String()
}

// countingHook returns a TrialHook that tallies executed injections per
// function, to prove cached sections execute zero trials.
func countingHook() (Options, func() map[string]int) {
	var mu sync.Mutex
	counts := make(map[string]int)
	opts := Options{TrialHook: func(in *ir.Instr, instance uint64, bit int, attempt int) error {
		mu.Lock()
		counts[in.Block.Fn.Name]++
		mu.Unlock()
		return nil
	}}
	return opts, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(counts))
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
}

// renameRegs renames every result register of one function — a
// semantics-preserving edit (the interpreter never reads names) that
// still changes the function's canonical printed body, and therefore its
// content hash. This is the validation edit of the incremental story:
// golden behavior is unchanged, so every *other* function's cache entry
// stays valid.
func renameRegs(t *testing.T, m *ir.Module, fnName string) {
	t.Helper()
	fn := m.Func(fnName)
	if fn == nil {
		t.Fatalf("module has no function @%s", fnName)
	}
	renamed := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				in.Name += "rn"
				renamed++
			}
		}
	}
	if renamed == 0 {
		t.Fatalf("@%s has no result registers to rename", fnName)
	}
}

// editTarget picks the function the incremental tests edit: a non-main
// function when the kernel has one (so other sections can stay cached),
// otherwise main.
func editTarget(m *ir.Module) string {
	for _, f := range m.Funcs {
		if f.Name != "main" {
			return f.Name
		}
	}
	return "main"
}

func compositionalN(t *testing.T) int {
	if testing.Short() {
		return 24
	}
	return 48
}

// TestCompositionalCacheReplayAllPrograms: populate the cache, re-run the
// identical campaign, and require (a) every section hits, (b) zero trials
// execute, (c) the replayed result is bit-identical to the original.
func TestCompositionalCacheReplayAllPrograms(t *testing.T) {
	n := compositionalN(t)
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			store, err := cache.Open(t.TempDir(), cache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inj1, err := New(p.Build(), Options{Seed: 42, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			res1, err := inj1.CampaignCompositional(context.Background(), n, store)
			if err != nil {
				t.Fatalf("populate: %v", err)
			}
			if res1.Hits != 0 || res1.Misses != len(res1.Funcs) {
				t.Errorf("fresh store: hits=%d misses=%d", res1.Hits, res1.Misses)
			}

			hookOpts, executed := countingHook()
			hookOpts.Seed, hookOpts.Workers = 42, 4
			inj2, err := New(p.Build(), hookOpts)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := inj2.CampaignCompositional(context.Background(), n, store)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res2.Hits != len(res2.Funcs) || res2.Misses != 0 {
				t.Errorf("replay: hits=%d misses=%d over %d funcs",
					res2.Hits, res2.Misses, len(res2.Funcs))
			}
			if ex := executed(); len(ex) != 0 {
				t.Errorf("replay executed trials: %v", ex)
			}
			if t1, t2 := compTranscript(res1), compTranscript(res2); t1 != t2 {
				t.Errorf("replay transcript diverges\nlive:\n%s\ncached:\n%s", t1, t2)
			}
			// The merged flat results must agree too.
			m1, err := res1.Merged()
			if err != nil {
				t.Fatal(err)
			}
			m2, err := res2.Merged()
			if err != nil {
				t.Fatal(err)
			}
			if transcript(m1) != transcript(m2) {
				t.Error("merged transcripts diverge")
			}
		})
	}
}

// TestCompositionalIncrementalEditAllPrograms is the acceptance drill:
// edit one function (register rename — behavior-preserving, hash-
// changing), re-run incrementally, and require that (a) only the edited
// function re-injects, (b) the composed result is bit-identical to a
// from-scratch campaign on the edited module. Runs on every kernel.
func TestCompositionalIncrementalEditAllPrograms(t *testing.T) {
	n := compositionalN(t)
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			store, err := cache.Open(t.TempDir(), cache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Populate from the pristine module.
			inj1, err := New(p.Build(), Options{Seed: 42, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inj1.CampaignCompositional(context.Background(), n, store); err != nil {
				t.Fatalf("populate: %v", err)
			}

			// Edit one function and re-run incrementally.
			edited := p.Build()
			target := editTarget(edited)
			renameRegs(t, edited, target)
			hookOpts, executed := countingHook()
			hookOpts.Seed, hookOpts.Workers = 42, 4
			inj2, err := New(edited, hookOpts)
			if err != nil {
				t.Fatalf("edited injector: %v", err)
			}
			if inj2.GoldenOutput() != inj1.GoldenOutput() || inj2.GoldenDynInstrs() != inj1.GoldenDynInstrs() {
				t.Fatalf("register rename changed golden behavior; edit is not semantics-preserving")
			}
			incr, err := inj2.CampaignCompositional(context.Background(), n, store)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}
			if incr.Misses != 1 || incr.Hits != len(incr.Funcs)-1 {
				t.Errorf("incremental after editing @%s: hits=%d misses=%d over %d funcs",
					target, incr.Hits, incr.Misses, len(incr.Funcs))
			}
			for fn, cnt := range executed() {
				if fn != target {
					t.Errorf("incremental executed %d trials in un-edited @%s", cnt, fn)
				}
			}
			for i := range incr.Funcs {
				fc := &incr.Funcs[i]
				if (fc.Name == target) == fc.Cached {
					t.Errorf("@%s cached=%v, edited function is @%s",
						fc.Name, fc.Cached, target)
				}
			}

			// From-scratch on the edited module must match bit for bit.
			editedScratch := p.Build()
			renameRegs(t, editedScratch, target)
			inj3, err := New(editedScratch, Options{Seed: 42, Workers: 4})
			if err != nil {
				t.Fatalf("scratch injector: %v", err)
			}
			scratch, err := inj3.CampaignCompositional(context.Background(), n, nil)
			if err != nil {
				t.Fatalf("scratch: %v", err)
			}
			if ti, ts := compTranscript(incr), compTranscript(scratch); ti != ts {
				t.Errorf("incremental vs from-scratch transcripts diverge\nincremental:\n%s\nscratch:\n%s",
					ti, ts)
			}
		})
	}
}

// TestCompositionalCrossEngineSharing: the snapshot interval is a
// performance knob outside the cache key, so a cache populated by a
// full re-execution campaign must fully serve a snapshot-replay
// campaign, bit for bit, without executing a trial.
func TestCompositionalCrossEngineSharing(t *testing.T) {
	n := compositionalN(t)
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			store, err := cache.Open(t.TempDir(), cache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			injF := newFull(t, p.Build(), Options{Seed: 7, Workers: 4})
			resF, err := injF.CampaignCompositional(context.Background(), n, store)
			if err != nil {
				t.Fatal(err)
			}
			hookOpts, executed := countingHook()
			hookOpts.Seed, hookOpts.Workers = 7, 4
			injS, err := New(p.Build(), hookOpts)
			if err != nil {
				t.Fatal(err)
			}
			resS, err := injS.CampaignCompositional(context.Background(), n, store)
			if err != nil {
				t.Fatal(err)
			}
			if resS.Hits != len(resS.Funcs) {
				t.Errorf("snapshot replay hit %d/%d sections of a cache populated by full re-execution",
					resS.Hits, len(resS.Funcs))
			}
			if ex := executed(); len(ex) != 0 {
				t.Errorf("snapshot replay executed trials: %v", ex)
			}
			if tF, tS := compTranscript(resF), compTranscript(resS); tF != tS {
				t.Errorf("transcripts diverge\nfull:\n%s\nsnapshot:\n%s", tF, tS)
			}
		})
	}
}

// mutateConstant flips the low bit of the first integer constant operand
// of an arithmetic instruction in the module — a behavior-*changing*
// edit candidate. Returns false if no candidate exists.
func mutateConstant(m *ir.Module) bool {
	done := false
	m.Instrs(func(in *ir.Instr) {
		if done || !in.Op.IsBinary() {
			return
		}
		for i, op := range in.Operands {
			if c, ok := op.(*ir.Const); ok && c.Type.IsInt() {
				in.Operands[i] = &ir.Const{Type: c.Type, Bits: c.Bits ^ 1}
				done = true
				return
			}
		}
	})
	return done
}

// TestCompositionalBehaviorChangeMissesEverything: an edit that changes
// golden behavior invalidates the golden-run stamp in every key, so the
// whole cache misses and the campaign degrades to a full re-run — the
// soundness half of the caching contract.
func TestCompositionalBehaviorChangeMissesEverything(t *testing.T) {
	for _, name := range []string{"libquantum", "blackscholes", "pathfinder"} {
		p, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		store, err := cache.Open(t.TempDir(), cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inj1, err := New(p.Build(), Options{Seed: 42, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inj1.CampaignCompositional(context.Background(), 24, store); err != nil {
			t.Fatal(err)
		}

		mutated := p.Build()
		if !mutateConstant(mutated) {
			t.Fatalf("%s: no integer constant to mutate", name)
		}
		inj2, err := New(mutated, Options{Seed: 42, Workers: 4})
		if err != nil {
			// The mutation broke the golden run entirely; that is an even
			// stronger behavior change, but there is no campaign to test.
			t.Logf("%s: mutated golden run failed (%v); skipping", name, err)
			continue
		}
		if inj2.GoldenOutput() == inj1.GoldenOutput() && inj2.GoldenDynInstrs() == inj1.GoldenDynInstrs() {
			t.Fatalf("%s: constant mutation left golden behavior unchanged; test is vacuous", name)
		}
		res, err := inj2.CampaignCompositional(context.Background(), 24, store)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hits != 0 {
			t.Errorf("%s: behavior-changing edit still hit %d cached sections", name, res.Hits)
		}
	}
}
