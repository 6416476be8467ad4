// Command crosscheck sweeps a program corpus through the differential
// oracle and the metamorphic invariant suite (internal/crosscheck): every
// program runs on both the production interpreter and the naive
// reference evaluator, which must agree on every observable (outcome,
// trap, output, dynamic counts, peak memory, full register-write trace);
// every program must survive the parser round trip; and, with
// -invariants, the TRIDENT model stack must satisfy its probability
// ranges, sub-model ordering, and protection-pass guarantees, with
// checkpointed campaigns resuming bit-identically.
//
// The corpus is -n randomly generated programs (seeds -seed, -seed+1,
// ...) plus, unless -kernels=false, the 11 paper benchmark kernels. A
// sweep that finds nothing prints a one-line summary and exits 0; any
// divergence prints a triage report (mismatches grouped by check kind,
// then details) and exits 1.
//
// Usage:
//
//	crosscheck [-n 500] [-seed 1] [-kernels] [-invariants]
//	           [-protect-trials 32] [-checkpoint-dir DIR] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"trident/internal/crosscheck"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crosscheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("crosscheck", flag.ContinueOnError)
	n := fs.Int("n", 500, "number of random programs to generate")
	seed := fs.Uint64("seed", 1, "first random-program seed (also seeds the invariant checks)")
	kernels := fs.Bool("kernels", true, "include the 11 paper benchmark kernels")
	invariants := fs.Bool("invariants", false, "check model and protection invariants (slower)")
	protectTrials := fs.Int("protect-trials", 0, "injection trials per program in the protection invariant (0 = default)")
	checkpointDir := fs.String("checkpoint-dir", "", "scratch directory: enables the checkpoint-resume bit-identity check")
	verbose := fs.Bool("v", false, "print each program as it is checked")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := crosscheck.Config{
		RandomPrograms: *n,
		Seed:           *seed,
		Kernels:        *kernels,
		Invariants:     *invariants,
		ProtectTrials:  *protectTrials,
		CheckpointDir:  *checkpointDir,
	}
	if *verbose {
		cfg.Progress = func(name string) { fmt.Fprintln(os.Stderr, "checking", name) }
	}

	rep, err := crosscheck.RunCorpus(cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if !rep.Clean() {
		os.Exit(1)
	}
	return nil
}
