GO ?= go

.PHONY: build test check race bench bench-all doc loc fuzz-smoke servercheck prunecheck stratcheck adaptcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints non-test Go lines per package (excluding testdata and
# perfbench) and the net change against BASE, the figure every change
# reports next to its benchmark numbers: make loc BASE=<parent-rev>.
BASE ?= HEAD
loc:
	bash scripts/loc.sh $(BASE)

# doc is the documentation lint: formatting must be canonical, vet must
# be clean, and every package (internal, cmd, examples, root) must carry
# a package-level doc comment. deadcheck then fails on any production
# function or method that no other non-test code names (see
# scripts/deadcheck.sh for its allowlist).
doc:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	bash scripts/doccheck.sh
	bash scripts/deadcheck.sh

# check is the CI gate: vet everything, including the perfbench module,
# which `go build ./...` skips because it is nested (vet compiles it
# without leaving a binary, so a change to an API the benchmark calls
# fails here), then race-test the concurrent
# campaign engine, the interpreter it drives (including the
# reference-parity and pooled-frame hygiene suites), the decoded
# lowering pass, and the cross-check harness that compares the
# interpreter against the reference evaluator. The race run includes the
# snapshot round-trip suite (internal/interp) and the differential
# suites comparing snapshot-replay campaigns against full re-execution
# and every trial against the reference evaluator (internal/fault). The
# crosscheck sweep runs a random corpus through the two-way oracle
# (reference evaluator × interpreter). The fuzz smoke run gives every
# native fuzz target a bounded slice of random exploration, and the
# fibench smoke run then proves snapshot replay and full re-execution
# still agree end-to-end on a short real campaign, that the telemetry
# layer stays within its ≤3% overhead budget (the median instrumented/bare
# process-CPU-time ratio over 27 interleaved pairs; see OBSERVABILITY.md),
# and that snapshot replay keeps its lead over full re-execution: each
# measured kernel's speedup may fall at most 25% below its committed
# BENCH_fi.json value (-baseline; the margin is sized in cmd/fibench),
# above the 1.1x geomean floor.
# The servercheck drill then attacks a live fiserver: it SIGKILLs the
# server mid-campaign, restarts it over the same spool (the job must run
# again), SIGTERMs it (expecting exit 143 and the job re-queued on disk),
# restarts again, and requires the resumed merged result to be
# byte-identical to a clean run of the same campaign and to a result
# served from the result cache. The bitlive pass runs under -race too —
# its Report is shared by campaign workers. The prunecheck drill closes the loop on
# bit-liveness pruning: pruned and unpruned campaigns through the real
# CLI, with and without snapshot replay, must report identical summaries
# and identical per-trial transcripts (DESIGN.md §5i,
# scripts/prunecheck.sh). The stratcheck drill does the same for
# stratified sampling: the thinned campaign's transcript must be a
# subset of the plain one and the reweighted estimate must land on the
# plain campaign's SDC probability (scripts/stratcheck.sh). The
# adaptcheck drill closes the loop on adaptive (Neyman) allocation:
# pilot-derived plans must replay byte-identically from their own
# checkpoints, and adaptive transcripts must be fenced from plain and
# stratified ones (scripts/adaptcheck.sh). The
# stats package races alongside the other tiers — its weighted tallies
# are accumulated by concurrent campaign code. The model package races in
# short mode: its concurrency test runs several models over one shared
# profile from separate goroutines, and the whole-kernel golden and
# determinism sweeps cover all 11 kernels; only the iterative-limit
# oracle check leaves out sad and bfs-parboil, whose oracle walks are slow
# (the full check runs in `make test`).
check: build doc
	cd perfbench && $(GO) vet ./...
	$(GO) test -race ./internal/fault/... ./internal/interp/... ./internal/decoded/... ./internal/telemetry/... ./internal/server/... ./internal/sigctx/... ./internal/hashutil/... ./internal/bitlive/... ./internal/stats/...
	$(GO) test -race -short ./internal/crosscheck/... ./internal/core/...
	$(GO) run ./cmd/crosscheck -n 60 -seed 77 -kernels=false
	$(MAKE) fuzz-smoke
	$(GO) run ./cmd/fibench -programs pathfinder -n 400 -repeats 27 -max-overhead 0.03 -min-snapshot-speedup 1.1 -baseline BENCH_fi.json -out /dev/null
	$(MAKE) servercheck
	$(MAKE) prunecheck
	$(MAKE) stratcheck
	$(MAKE) adaptcheck

# servercheck is the campaign server's kill drill; see
# scripts/servercheck.sh for the exact choreography.
servercheck:
	bash scripts/servercheck.sh

# prunecheck is the bit-liveness pruning drill: pruned vs unpruned
# campaigns through the real CLI must be bit-identical; see
# scripts/prunecheck.sh for the exact choreography.
prunecheck:
	bash scripts/prunecheck.sh

# stratcheck is the stratified-sampling drill: thinned campaigns through
# the real CLI must report unbiased weighted estimates over a subset
# transcript, and mismatched resumes must be refused; see
# scripts/stratcheck.sh for the exact choreography.
stratcheck:
	bash scripts/stratcheck.sh

# adaptcheck is the adaptive-stratification drill: pilot-derived plans
# must replay deterministically, and mismatched resumes must be refused;
# see scripts/adaptcheck.sh for the exact choreography.
adaptcheck:
	bash scripts/adaptcheck.sh

# fuzz-smoke runs every native fuzz target for a bounded slice (~10s
# each): long enough to mutate past the seed corpus, short enough for
# CI. Targets are discovered with go test -list, so a new Fuzz* function
# joins the smoke run without editing this file. Deep fuzzing is manual:
# go test <package> -run '^$$' -fuzz <target>.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(printf '%s\n' "$$targets" | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime 10s; \
		done; \
	done

# bench measures the snapshot-replay and pruned campaigns against full
# re-execution plus the telemetry layer's overhead across all 11 paper
# kernels and the narrow-output kernels the pruning pass targets
# (committed as BENCH_fi.json), and runs the campaign benchmarks and the
# model's profiling and inference benchmarks. The pruning gate requires a
# ≥1.2x equal-CI speedup on at least 3 kernels (the narrow-output ones
# clear it; the paper kernels' near-zero masked fractions are expected).
# The stratification gate mirrors it: at least 3 kernels must show a
# ≥1.1x weighted-CI shrink at equal executed trials under the default
# plan. The adaptive gate requires a ≥1.05x shrink that also matches or
# beats the static plan's on at least 3 kernels — pilot cost included,
# so the floor sits below the static gate's on purpose.
bench:
	$(GO) run ./cmd/fibench -programs libquantum,blackscholes,sad,bfs-parboil,hercules,lulesh,puremd,nw,pathfinder,hotspot,bfs-rodinia,rgb2gray,nibblepack,boxblur -repeats 3 -min-pruned-ci-speedup 1.2 -min-strat-ci-shrink 1.1 -min-adapt-ci-shrink 1.05 -out BENCH_fi.json
	$(GO) test -bench='BenchmarkCampaign' -benchmem .
	$(GO) test -run '^$$' -bench='ProfilingPhase|ModelAllInstructions' -benchmem .

# bench-all runs the full benchmark harness (paper tables, ablations,
# substrates); takes several minutes.
bench-all:
	$(GO) test -bench=. -benchmem

race:
	$(GO) test -race ./...
