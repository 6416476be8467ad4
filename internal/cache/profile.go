package cache

// This file defines the schema of per-function campaign profiles — the
// payloads the compositional campaign (internal/fault) stores and the
// composition layer consumes. The types speak strings, not fault.Outcome
// values, so the cache has no dependency on the fault package and an
// on-disk profile is readable without it.

// Stamp pins a profile to the behavior of the golden run it was measured
// under. Body hashes alone are not enough for soundness: a fault injected
// in one function propagates through the whole program, so a cached
// profile is only reusable while the rest of the program still behaves
// identically. The stamp captures that behavior — the golden output
// hash, the golden dynamic instruction count, and this function's own
// activation count — and lives *inside* the cache key: a
// behavior-changing edit anywhere changes the stamp and every lookup
// misses (full re-run, correct), while a behavior-preserving edit (a
// register rename, a comment-level change) leaves other functions'
// stamps intact and their profiles hit.
type Stamp struct {
	// GoldenOutput is the hex hash of the fault-free program output.
	GoldenOutput string `json:"golden_output"`
	// GoldenDyn is the fault-free dynamic instruction count.
	GoldenDyn uint64 `json:"golden_dyn"`
	// Activations is this function's share of the activation space: its
	// dynamic register-write count in the golden run.
	Activations uint64 `json:"activations"`
}

// FuncKey is the content address of one per-function campaign section.
// Two campaigns that agree on every field draw the identical trial list
// and classify it identically, so the cached profile substitutes for
// re-execution bit for bit. Performance knobs (snapshot interval,
// workers) are deliberately absent: they never change a trial's outcome,
// which the differential suites fence.
type FuncKey struct {
	// Kind distinguishes payload schemas sharing one store directory
	// ("func-profile" for these).
	Kind string `json:"kind"`
	// Func is the function name; BodyHash is hashutil.Hex of the hash of
	// its canonical printed form.
	Func     string `json:"func"`
	BodyHash string `json:"body_hash"`
	// Model names the fault model and its version ("bitflip/v1").
	Model string `json:"model"`
	// HangFactor is the hang-detection budget multiplier in effect.
	HangFactor uint64 `json:"hang_factor"`
	// Seed is the campaign seed; the per-function sampling stream is
	// derived from it together with Func and BodyHash.
	Seed uint64 `json:"seed"`
	// N is the number of trials apportioned to this function.
	N int `json:"n"`
	// Prune is the hex hash of the static bit-liveness masks in effect
	// for this function (internal/bitlive, DESIGN.md §5i), empty when
	// pruning is off. Pruned and unpruned campaigns classify every trial
	// identically when the analysis is sound, but the analysis itself
	// can change across versions — keying on the mask hash means a
	// rule change invalidates exactly the entries whose masks moved,
	// and unpruned keys stay byte-identical to pre-pruning releases.
	Prune string `json:"prune,omitempty"`
	// Stratify is the hex hash of the stratification in effect for this
	// function — its bit-influence classification folded with the plan's
	// rates (internal/bitlive, ANALYSIS.md "Stratified sampling over live
	// bits") — empty for plain campaigns. A stratified section holds a
	// thinned, reweighted subset of the plain section's trials, so the
	// two must never share an entry; keying on the hash also means a
	// classifier or plan change invalidates exactly the stratified
	// entries, while plain keys stay byte-identical to prior releases.
	Stratify string `json:"stratify,omitempty"`
	// Stamp pins the golden-run behavior this profile was measured under.
	Stamp Stamp `json:"stamp"`
}

// FuncProfileKind is the FuncKey.Kind value for per-function profiles.
const FuncProfileKind = "func-profile"

// TrialRec is one completed trial in a per-function profile: the full
// transcript, not just a tally, so a composed campaign can reproduce a
// from-scratch campaign's per-trial records bit for bit. Instr is the
// function-local instruction ID (stable across print→parse round trips),
// never a pointer or a global index.
type TrialRec struct {
	Instr    int    `json:"instr"`
	Instance uint64 `json:"instance"`
	Bit      int    `json:"bit"`
	Outcome  string `json:"outcome"`
	Latency  uint64 `json:"latency,omitempty"`
}

// FuncProfile is the cached payload for one FuncKey: the exact outcome
// tally plus the per-trial transcript in sampling order. Profiles are
// only ever written for clean sections — no Errored trials, no
// cancellation — so replaying one is indistinguishable from re-running.
type FuncProfile struct {
	Counts map[string]int `json:"counts"`
	Trials []TrialRec     `json:"trials"`
}
