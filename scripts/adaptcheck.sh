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
#
# Passing means: pilot-derived plans replay deterministically, and
# checkpoint headers fence adaptive transcripts from the other kinds.
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

echo "adaptcheck: PASS"
