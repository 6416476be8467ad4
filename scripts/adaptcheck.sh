#!/usr/bin/env bash
# adaptcheck.sh — the adaptive-stratification drill, run by `make check`.
#
# It exercises the two-phase Neyman-allocation contract (ANALYSIS.md,
# "Adaptive (Neyman) allocation") end to end through the real CLI:
#
#   1. run an adaptive campaign on rgb2gray (the narrow-output kernel
#      where the strata differ enough for allocation to matter) with a
#      checkpoint; the summary must report the pilot, a derived plan,
#      and thinning (fewer executed trials than drawn slots)
#   2. re-running against its own checkpoint must replay to the
#      byte-identical summary — the plan is re-derived from the pilot
#      records, never trusted from disk
#   3. resuming a plain or stratified checkpoint with -stratify-adaptive
#      (and an adaptive one without) must be refused — the three
#      transcript kinds thin differently and must never mix
#   4. a plain compositional run on blackscholes (the multi-function
#      kernel) seeds the per-function profile cache; an adaptive
#      compositional run against that cache must derive every plan from
#      the cached tallies — all functions SEED, zero pilot trials
#   5. a warm adaptive re-run must hit the same entries and compose
#      byte-identically
#   6. a cold adaptive run against a fresh cache pays for its pilots
#      (all functions MISS, pilot trials > 0) and must still compose
#      byte-identically to the seeded run — skipping the pilot changes
#      what executes, never the composed result
#
# Passing means: pilot-derived plans replay deterministically, checkpoint
# headers fence adaptive transcripts from the other kinds, and cached
# profiles buy back the whole pilot without changing a byte of output.
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d /tmp/adaptcheck.XXXXXX)
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() {
    echo "adaptcheck: FAIL: $*" >&2
    exit 1
}

PROG=rgb2gray
N=400
SEED=9

echo "adaptcheck: building fi"
$GO build -o "$TMP/fi" ./cmd/fi

run() { # log checkpoint extra-flags...
    log=$1
    ck=$2
    shift 2
    "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
        -checkpoint "$ck" "$@" >"$log" 2>>"$TMP/stderr.log"
}

echo "adaptcheck: adaptive campaign"
run "$TMP/adapt.log" "$TMP/adapt.jsonl" -stratify-adaptive

grep -q '^adaptive stratified sampling (pilot [1-9][0-9]* of [0-9]* slots, derived plan ' "$TMP/adapt.log" \
    || fail "summary is missing the pilot/derived-plan line"
executed=$(sed -n 's/^ *\([0-9][0-9]*\) of [0-9]* drawn slots executed$/\1/p' "$TMP/adapt.log")
[ -n "$executed" ] || fail "summary is missing the executed-slots line"
[ "$executed" -lt "$N" ] || fail "the adaptive campaign thinned nothing ($executed of $N executed)"
grep -q '^  pilot spent [0-9]*% of the executed budget' "$TMP/adapt.log" \
    || fail "summary is missing the pilot budget-share line"

echo "adaptcheck: checkpoint replay"
run "$TMP/adapt2.log" "$TMP/adapt.jsonl" -stratify-adaptive -resume
# The snapshot-replay line counts trials this process executed, and a
# replay executes none: it must say so, and every other line must be
# byte-identical.
grep -q '^snapshot replay: .*; 0 of 0 executed trials rejoined' "$TMP/adapt2.log" \
    || fail "replay executed trials, or its snapshot-replay line is missing"
grep -v '^snapshot replay:' "$TMP/adapt.log" >"$TMP/adapt.summary"
grep -v '^snapshot replay:' "$TMP/adapt2.log" >"$TMP/adapt2.summary"
cmp "$TMP/adapt.summary" "$TMP/adapt2.summary" \
    || fail "replayed adaptive summary differs from the original run"

echo "adaptcheck: mismatched-resume refusals"
run "$TMP/plain.log" "$TMP/plain.jsonl"
if "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
    -checkpoint "$TMP/plain.jsonl" -stratify-adaptive -resume >"$TMP/refuse1.log" 2>&1; then
    fail "resuming a plain checkpoint with -stratify-adaptive was not refused"
fi
grep -qi 'adaptive' "$TMP/refuse1.log" \
    || fail "plain-as-adaptive refusal does not explain the campaign-kind mismatch"
if "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
    -checkpoint "$TMP/adapt.jsonl" -resume >"$TMP/refuse2.log" 2>&1; then
    fail "resuming an adaptive checkpoint without -stratify-adaptive was not refused"
fi
grep -qi 'adaptive' "$TMP/refuse2.log" \
    || fail "adaptive-as-plain refusal does not explain the campaign-kind mismatch"
if "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
    -checkpoint "$TMP/adapt.jsonl" -stratify -resume >"$TMP/refuse3.log" 2>&1; then
    fail "resuming an adaptive checkpoint with -stratify was not refused"
fi
grep -qi 'adaptive' "$TMP/refuse3.log" \
    || fail "adaptive-as-stratified refusal does not explain the campaign-kind mismatch"

# The compositional track uses blackscholes: two functions, so the
# hit/miss/seed accounting distinguishes per-function states.
crun() { # compose-out cache-dir log extra-flags...
    cout=$1
    cache=$2
    log=$3
    shift 3
    "$TMP/fi" -program blackscholes -n "$N" -seed "$SEED" -progress=false \
        -cache-dir "$cache" -compose-out "$cout" "$@" >"$log" 2>>"$TMP/stderr.log"
}

echo "adaptcheck: plain compositional run (seeds the profile cache)"
crun "$TMP/plain.json" "$TMP/cache" "$TMP/cplain.log"
grep -q '^cache: 0 hit(s), 2 miss(es)$' "$TMP/cplain.log" \
    || fail "plain seeding run: want 2 misses, got: $(grep '^cache:' "$TMP/cplain.log")"

echo "adaptcheck: adaptive compositional run (plans seeded, no pilot)"
crun "$TMP/seeded.json" "$TMP/cache" "$TMP/seeded.log" -stratify-adaptive
grep -q '^cache: 2 hit(s), 0 miss(es); 2 plan(s) seeded from plain profiles, 0 pilot trials executed$' "$TMP/seeded.log" \
    || fail "seeded run: want 2 seeded plans and 0 pilot trials, got: $(grep '^cache:' "$TMP/seeded.log")"
seeds=$(grep -c 'SEED (plan from plain profile, no pilot)' "$TMP/seeded.log") \
    && [ "$seeds" -eq 2 ] || fail "want both functions SEED, got $seeds"

echo "adaptcheck: warm adaptive re-run (byte-identical compose)"
crun "$TMP/warm.json" "$TMP/cache" "$TMP/warm.log" -stratify-adaptive
cmp "$TMP/seeded.json" "$TMP/warm.json" \
    || fail "warm adaptive compose output differs from the seeded run"

echo "adaptcheck: cold adaptive run (fresh cache, pilots execute)"
crun "$TMP/cold.json" "$TMP/cache-fresh" "$TMP/cold.log" -stratify-adaptive
grep -q '^cache: 0 hit(s), 2 miss(es); 0 plan(s) seeded' "$TMP/cold.log" \
    || fail "cold run: want 2 misses, got: $(grep '^cache:' "$TMP/cold.log")"
pilots=$(sed -n 's/^cache: .*, \([0-9][0-9]*\) pilot trials executed$/\1/p' "$TMP/cold.log")
[ -n "$pilots" ] && [ "$pilots" -gt 0 ] \
    || fail "cold run executed no pilot trials ('$pilots')"
cmp "$TMP/seeded.json" "$TMP/cold.json" \
    || fail "seeded compose differs from cold (pilot-skipping changed the result)"

echo "adaptcheck: PASS"
