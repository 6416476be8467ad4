// Package crosscheck is the correctness harness that backs the
// fault-injection ground truth: it drives programs through both the
// production interpreter (internal/interp, an optimized explicit-frame
// machine over pre-decoded streams with snapshot/replay) and the
// deliberately naive reference
// evaluator (internal/refinterp), asserting bit-identical observables —
// outcome, trap kind and position, program output, dynamic instruction
// and register-write counts, peak memory, and the full ordered
// register-write trace. On top of the differential oracle it checks
// metamorphic invariants of the TRIDENT model stack (probability ranges,
// sub-model ordering, protection-pass guarantees, checkpoint-resume
// bit-identity) over random irgen programs and the 11 paper kernels.
//
// What it proves: that two independently written executors agree on
// every observable for every program exercised, that the optimized
// engine's snapshot and budget machinery does not change classification,
// and that model-level invariants that must hold by construction
// actually hold on real programs. What it does not prove: agreement on
// programs outside the exercised corpus, or that the shared IR-level
// value helpers (bit truncation, sign extension, float codecs) are
// themselves correct — those are common to both interpreters by design
// and pinned by their own unit tests instead. DESIGN.md §5e documents
// the architecture and the bugs the harness has caught; the
// exhaustive-injection pruning oracle here is specified in DESIGN.md
// §5i.
package crosscheck

import (
	"fmt"
	"strings"

	"trident/internal/hashutil"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/refinterp"
)

// Mismatch is one observed divergence between the two interpreters, a
// broken metamorphic invariant, or a parser round-trip failure.
type Mismatch struct {
	// Program identifies the module (kernel name or "rand-<seed>").
	Program string
	// Check names the comparison that failed (e.g. "output",
	// "trace[1234]", "hang-at-budget-1", "model-range/trident").
	Check string
	// Got is the production-side (or post-transformation) observation.
	Got string
	// Want is the reference-side (or pre-transformation) observation.
	Want string
}

// String renders the mismatch for triage reports.
func (d Mismatch) String() string {
	return fmt.Sprintf("%s: %s: got %s, want %s", d.Program, d.Check, d.Got, d.Want)
}

// traceEntry is one register write observed through OnResult.
type traceEntry struct {
	pos  string
	bits uint64
}

// maxTrace bounds the recorded write trace per run; beyond it only the
// running count is compared. Every irgen program and kernel input in the
// corpus fits well below the bound.
const maxTrace = 1 << 22

// refObservation runs the reference evaluator and records the write
// trace.
func refObservation(m *ir.Module, maxDyn uint64) (*refinterp.Result, []traceEntry, error) {
	var trace []traceEntry
	res, err := refinterp.Run(m, refinterp.Options{
		MaxDynInstrs: maxDyn,
		OnResult: func(in *ir.Instr, bits uint64) uint64 {
			if len(trace) < maxTrace {
				trace = append(trace, traceEntry{pos: in.Pos(), bits: bits})
			}
			return bits
		},
	})
	return res, trace, err
}

// CompareModule runs m through the reference evaluator and the
// production interpreter and returns every divergence. The interpreter
// is exercised on its plain path with a streaming write-trace
// comparison, on truncated instruction budgets bracketing the reference
// dynamic count (hang-classification parity), and on the snapshot
// capture/resume path.
func CompareModule(name string, m *ir.Module) ([]Mismatch, error) {
	refRes, refTrace, err := refObservation(m, 0)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: reference run of %s: %w", name, err)
	}

	prodRes, out, err := compareRun(name, m, refRes, refTrace)
	if err != nil {
		return nil, err
	}

	// Hang-classification parity across truncated budgets: the reference
	// run took exactly refRes.DynInstrs dispatches, so a budget of that
	// value must preserve the classification on both sides, and budget-1
	// must hang on both sides. (For a run that already hung, DynInstrs is
	// budget+1 and the bracketing is exercised by the caller's table.)
	if refRes.Outcome != refinterp.OutcomeHang && refRes.DynInstrs > 0 {
		for _, budget := range []uint64{refRes.DynInstrs, refRes.DynInstrs - 1} {
			if budget == 0 {
				continue
			}
			ms, err := compareAtBudget(name, m, budget)
			if err != nil {
				return nil, err
			}
			out = append(out, ms...)
		}
	}

	ms, err := compareSnapshotResume(name, m, prodRes)
	if err != nil {
		return nil, err
	}
	return append(out, ms...), nil
}

// compareRun executes m on the production interpreter with a streaming
// write-trace comparison against the reference trace and compares every
// result observable.
func compareRun(name string, m *ir.Module, refRes *refinterp.Result, refTrace []traceEntry) (*interp.Result, []Mismatch, error) {
	var out []Mismatch
	var (
		cursor        int
		traceMismatch *Mismatch
		extra         int
	)
	prodRes, err := interp.Run(m, interp.Options{
		Hooks: interp.Hooks{
			OnResult: func(_ *interp.Context, in *ir.Instr, bits uint64) {
				switch {
				case cursor < len(refTrace):
					if traceMismatch == nil {
						e := refTrace[cursor]
						if e.pos != in.Pos() || e.bits != bits {
							traceMismatch = &Mismatch{
								Program: name,
								Check:   fmt.Sprintf("trace[%d]", cursor),
								Got:     fmt.Sprintf("%s=%#x", in.Pos(), bits),
								Want:    fmt.Sprintf("%s=%#x", e.pos, e.bits),
							}
						}
					}
					cursor++
				default:
					extra++
				}
			},
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("crosscheck: interp run of %s: %w", name, err)
	}
	if traceMismatch != nil {
		out = append(out, *traceMismatch)
	}
	if cursor < len(refTrace) && uint64(len(refTrace)) < maxTrace {
		out = append(out, Mismatch{Program: name, Check: "trace-length",
			Got: fmt.Sprint(cursor), Want: fmt.Sprint(len(refTrace))})
	}
	if extra > 0 {
		out = append(out, Mismatch{Program: name, Check: "trace-length",
			Got: fmt.Sprint(cursor + extra), Want: fmt.Sprint(len(refTrace))})
	}
	out = append(out, compareResults(name, "", prodRes, refRes)...)
	return prodRes, out, nil
}

// compareAtBudget runs the reference evaluator and the production
// interpreter under an explicit instruction budget and requires
// identical classification and counters.
func compareAtBudget(name string, m *ir.Module, budget uint64) ([]Mismatch, error) {
	ref, err := refinterp.Run(m, refinterp.Options{MaxDynInstrs: budget})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: reference budget run of %s: %w", name, err)
	}
	prod, err := interp.Run(m, interp.Options{MaxDynInstrs: budget})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: interp budget run of %s: %w", name, err)
	}
	return compareResults(name, fmt.Sprintf("budget[%d]/", budget), prod, ref), nil
}

// compareResults compares every observable of the two results. prefix
// namespaces the check labels (e.g. "budget[999]/outcome").
func compareResults(name, prefix string, prod *interp.Result, ref *refinterp.Result) []Mismatch {
	var out []Mismatch
	add := func(check, got, want string) {
		if got != want {
			out = append(out, Mismatch{Program: name, Check: prefix + check, Got: got, Want: want})
		}
	}
	add("outcome", prod.Outcome.String(), ref.Outcome.String())
	add("trap", trapString(prod.Trap), refTrapString(ref.Trap))
	add("output", fmt.Sprintf("%q", prod.Output), fmt.Sprintf("%q", ref.Output))
	add("output-lines", fmt.Sprint(prod.OutputLines), fmt.Sprint(ref.OutputLines))
	add("dyn-instrs", fmt.Sprint(prod.DynInstrs), fmt.Sprint(ref.DynInstrs))
	add("dyn-results", fmt.Sprint(prod.DynResults), fmt.Sprint(ref.DynResults))
	add("peak-mem", fmt.Sprint(prod.PeakMemBytes), fmt.Sprint(ref.PeakMemBytes))
	return out
}

func trapString(t *interp.Trap) string {
	if t == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s@%s addr=%#x", t.Kind, t.Instr.Pos(), t.Addr)
}

func refTrapString(t *refinterp.Trap) string {
	if t == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s@%s addr=%#x", t.Kind, t.Instr.Pos(), t.Addr)
}

// compareSnapshotResume re-runs m with periodic snapshot capture,
// resumes the last captured snapshot, and requires both the capturing
// run and the resumed execution to reproduce the uninterrupted result
// exactly.
func compareSnapshotResume(name string, m *ir.Module, base *interp.Result) ([]Mismatch, error) {
	if base.DynInstrs < 2 {
		return nil, nil
	}
	interval := base.DynInstrs / 3
	if interval == 0 {
		interval = 1
	}
	var out []Mismatch
	var last *interp.Snapshot
	snapRes, err := interp.Run(m, interp.Options{
		SnapshotInterval: interval,
		OnSnapshot:       func(s *interp.Snapshot) { last = s },
	})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: snapshot run of %s: %w", name, err)
	}
	if !sameSummary(snapRes, base) {
		out = append(out, Mismatch{Program: name, Check: "snapshot-run",
			Got: resultSummary(snapRes), Want: resultSummary(base)})
	}
	if last == nil {
		return out, nil
	}
	resumed, err := interp.Resume(last, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: resume of %s: %w", name, err)
	}
	if !sameSummary(resumed, base) {
		out = append(out, Mismatch{Program: name, Check: "snapshot-resume",
			Got: resultSummary(resumed), Want: resultSummary(base)})
	}
	return out, nil
}

// sameSummary compares the observables resultSummary renders.
func sameSummary(a, b *interp.Result) bool {
	return a.Outcome == b.Outcome && a.Output == b.Output &&
		a.DynInstrs == b.DynInstrs && a.DynResults == b.DynResults
}

func resultSummary(r *interp.Result) string {
	return fmt.Sprintf("outcome=%s dyn=%d results=%d lines=%d output-hash=%x",
		r.Outcome, r.DynInstrs, r.DynResults, r.OutputLines, hashutil.Output(r.Output))
}

// RoundTripModule checks the parser/printer loop on m: Print must parse
// back, re-print to the identical text (fixed point), and the reparsed
// module must be semantically identical — same reference-run observables
// and write trace as the original.
func RoundTripModule(name string, m *ir.Module) ([]Mismatch, error) {
	var out []Mismatch
	text1 := ir.Print(m)
	m2, err := ir.Parse(text1)
	if err != nil {
		out = append(out, Mismatch{Program: name, Check: "reparse",
			Got: fmt.Sprintf("error: %v", err), Want: "parse success"})
		return out, nil
	}
	if text2 := ir.Print(m2); text2 != text1 {
		out = append(out, Mismatch{Program: name, Check: "print-fixed-point",
			Got: firstDiffLine(text2, text1), Want: "identical text"})
	}

	origRes, origTrace, err := refObservation(m, 0)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: reference run of %s: %w", name, err)
	}
	reRes, reTrace, err := refObservation(m2, 0)
	if err != nil {
		out = append(out, Mismatch{Program: name, Check: "reparse-run",
			Got: fmt.Sprintf("error: %v", err), Want: "run success"})
		return out, nil
	}
	if origRes.Outcome != reRes.Outcome || origRes.Output != reRes.Output ||
		origRes.DynInstrs != reRes.DynInstrs || origRes.DynResults != reRes.DynResults {
		out = append(out, Mismatch{Program: name, Check: "reparse-semantics",
			Got: fmt.Sprintf("outcome=%s dyn=%d results=%d output=%q",
				reRes.Outcome, reRes.DynInstrs, reRes.DynResults, reRes.Output),
			Want: fmt.Sprintf("outcome=%s dyn=%d results=%d output=%q",
				origRes.Outcome, origRes.DynInstrs, origRes.DynResults, origRes.Output)})
	}
	if len(origTrace) != len(reTrace) {
		out = append(out, Mismatch{Program: name, Check: "reparse-trace-length",
			Got: fmt.Sprint(len(reTrace)), Want: fmt.Sprint(len(origTrace))})
	} else {
		for i := range origTrace {
			if origTrace[i] != reTrace[i] {
				out = append(out, Mismatch{Program: name,
					Check: fmt.Sprintf("reparse-trace[%d]", i),
					Got:   fmt.Sprintf("%s=%#x", reTrace[i].pos, reTrace[i].bits),
					Want:  fmt.Sprintf("%s=%#x", origTrace[i].pos, origTrace[i].bits)})
				break
			}
		}
	}
	return out, nil
}

// firstDiffLine locates the first differing line of two texts for
// compact triage output.
func firstDiffLine(got, want string) string {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(gl), len(wl))
}
