#!/usr/bin/env bash
# stratcheck.sh — the stratified-sampling drill, run by `make check`.
#
# It exercises the stratified live-bit importance-sampling contract
# (ANALYSIS.md, "Stratified sampling over live bits") end to end through
# the real CLI:
#
#   1. run a plain campaign on rgb2gray (the narrow-output kernel where
#      the masked stratum is large), checkpointing every trial
#   2. run the identical campaign with -stratify under the default plan
#   3. the stratified run must actually thin (fewer executed trials
#      than drawn slots) and report the weighted estimate lines
#   4. under the default plan — only provably-masked bits are thinned,
#      and the liveness oracle guarantees them Benign — the weighted
#      SDC probability must equal the plain campaign's SDC probability
#      to the printed precision
#   5. the stratified checkpoint transcript must be a subset of the
#      plain transcript: same records, none invented, none rewritten
#   6. re-running the stratified campaign against its own checkpoint
#      must replay to the identical summary
#   7. resuming a plain checkpoint with -stratify (and a stratified one
#      without) must be refused — mixing differently-thinned logs would
#      silently bias the weighted estimator
#
# Passing means: stratification changes which trials *execute*, the
# reweighting reports the same probability the full campaign measures,
# and checkpoint headers fence the two transcript kinds apart.
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d /tmp/stratcheck.XXXXXX)
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() {
    echo "stratcheck: FAIL: $*" >&2
    exit 1
}

PROG=rgb2gray
N=400
SEED=9

echo "stratcheck: building fi"
$GO build -o "$TMP/fi" ./cmd/fi

run() { # log checkpoint extra-flags...
    log=$1
    ck=$2
    shift 2
    "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
        -checkpoint "$ck" "$@" >"$log" 2>>"$TMP/stderr.log"
}

echo "stratcheck: plain baseline"
run "$TMP/plain.log" "$TMP/plain.jsonl"

echo "stratcheck: stratified campaign"
run "$TMP/strat.log" "$TMP/strat.jsonl" -stratify

executed=$(sed -n 's/^ *\([0-9][0-9]*\) of [0-9]* drawn slots executed$/\1/p' "$TMP/strat.log")
[ -n "$executed" ] || fail "summary is missing the executed-slots line"
[ "$executed" -lt "$N" ] || fail "stratification thinned nothing ($executed of $N executed)"
grep -q '^stratified sampling (plan ' "$TMP/strat.log" \
    || fail "summary is missing the stratification plan"

# The default plan thins only the provably-masked stratum, whose bits
# the liveness analysis guarantees Benign — so the reweighted estimate
# must land exactly on the plain campaign's SDC probability.
plain_sdc=$(sed -n 's/^SDC probability: \([0-9.]*\)%.*/\1/p' "$TMP/plain.log")
weighted_sdc=$(sed -n 's/^weighted SDC probability: \([0-9.]*\)%.*/\1/p' "$TMP/strat.log")
[ -n "$plain_sdc" ] && [ -n "$weighted_sdc" ] \
    || fail "could not extract SDC probabilities (plain '$plain_sdc', weighted '$weighted_sdc')"
[ "$plain_sdc" = "$weighted_sdc" ] \
    || fail "weighted SDC $weighted_sdc% drifted from the plain campaign's $plain_sdc%"

# Subset check: every stratified trial record (headers aside — they
# legitimately differ in the stratification hash) must appear in the
# plain transcript, byte for byte.
grep -v '"version"' "$TMP/strat.jsonl" | sort >"$TMP/strat.sorted"
grep -v '"version"' "$TMP/plain.jsonl" | sort >"$TMP/plain.sorted"
extra=$(comm -23 "$TMP/strat.sorted" "$TMP/plain.sorted")
[ -z "$extra" ] || fail "stratified transcript has records the plain campaign never ran: $extra"
# Sampling draws with replacement, and the log keeps one record per
# unique (fn, instr, instance, bit) key — so the record count is at
# most the executed count, and must still be a real campaign's worth.
strat_n=$(wc -l <"$TMP/strat.sorted")
[ "$strat_n" -gt 0 ] && [ "$strat_n" -le "$executed" ] \
    || fail "checkpoint holds $strat_n trial records for $executed executed trials"

echo "stratcheck: checkpoint replay"
run "$TMP/strat2.log" "$TMP/strat.jsonl" -stratify -resume
# The snapshot-replay line counts trials this process executed, and a
# replay executes none: it must say so, and every other line must be
# byte-identical.
grep -q '^snapshot replay: .*; 0 of 0 executed trials rejoined' "$TMP/strat2.log" \
    || fail "replay executed trials, or its snapshot-replay line is missing"
grep -v '^snapshot replay:' "$TMP/strat.log" >"$TMP/strat.summary"
grep -v '^snapshot replay:' "$TMP/strat2.log" >"$TMP/strat2.summary"
cmp "$TMP/strat.summary" "$TMP/strat2.summary" \
    || fail "replayed stratified summary differs from the original run"

echo "stratcheck: mismatched-resume refusal"
if "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
    -checkpoint "$TMP/plain.jsonl" -stratify -resume >"$TMP/refuse1.log" 2>&1; then
    fail "resuming a plain checkpoint with -stratify was not refused"
fi
grep -qi 'stratif' "$TMP/refuse1.log" \
    || fail "plain-as-stratified refusal does not explain the stratification mismatch"
if "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
    -checkpoint "$TMP/strat.jsonl" -resume >"$TMP/refuse2.log" 2>&1; then
    fail "resuming a stratified checkpoint without -stratify was not refused"
fi
grep -qi 'stratif' "$TMP/refuse2.log" \
    || fail "stratified-as-plain refusal does not explain the stratification mismatch"

echo "stratcheck: PASS"
