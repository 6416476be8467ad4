#!/usr/bin/env bash
# prunecheck.sh — the bit-liveness pruning drill, run by `make check`.
#
# It exercises the exact-reweighting contract (DESIGN.md §5i) end to end
# through the real CLI:
#
#   1. run an unpruned campaign on rgb2gray (the narrow-output kernel
#      where the pass bites), checkpointing every trial
#   2. run the identical campaign with -prune-bits, once with snapshot
#      replay and once re-executing every trial in full
#   3. the pruned runs must actually prune (the summary reports a
#      nonzero masked fraction and a nonzero pruned-trial count)
#   4. the pruned summaries — tallies, rates, SDC CI — must be
#      line-identical to the unpruned one once the two pruning-status
#      lines are stripped
#   5. the pruned checkpoint transcripts must contain exactly the same
#      trial records as the unpruned one (sorted to erase worker
#      completion order, which is the only legitimate difference)
#
# Passing means: pruning changes which trials *execute*, and nothing
# about what the campaign *reports*.
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d /tmp/prunecheck.XXXXXX)
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() {
    echo "prunecheck: FAIL: $*" >&2
    exit 1
}

PROG=rgb2gray
N=400
SEED=9

echo "prunecheck: building fi"
$GO build -o "$TMP/fi" ./cmd/fi

run() { # log checkpoint extra-flags...
    log=$1
    ck=$2
    shift 2
    "$TMP/fi" -program "$PROG" -n "$N" -seed "$SEED" -progress=false \
        -checkpoint "$ck" "$@" >"$log" 2>>"$TMP/stderr.log"
}

echo "prunecheck: unpruned baseline"
run "$TMP/plain.log" "$TMP/plain.jsonl"

echo "prunecheck: pruned campaign (snapshot replay)"
run "$TMP/pruned.log" "$TMP/pruned.jsonl" -prune-bits

echo "prunecheck: pruned campaign (full re-execution)"
run "$TMP/pruned-full.log" "$TMP/pruned-full.jsonl" -prune-bits -snapshot-interval -1
# fi prints its snapshot-replay line only when trials resume from snapshots.
! grep -q '^snapshot replay:' "$TMP/pruned-full.log" \
    || fail "full re-execution run used snapshot replay: $(grep '^snapshot replay:' "$TMP/pruned-full.log")"

check_pruned() { # log checkpoint label
    grep '^bit-liveness pruning:' "$1" | grep -qv ' 0\.0% ' \
        || fail "$3: summary reports no masked fraction: $(grep '^bit-liveness pruning:' "$1" || echo missing)"
    grep -q 'pruned statically (no execution)$' "$1" \
        || fail "$3: no trials were pruned (expected a nonzero pruned count)"
    # Everything but the two pruning-status lines and the snapshot-replay
    # line must match the unpruned summary exactly: same tallies, same
    # rates, same CI.
    grep -v 'bit-liveness pruning:\|pruned statically\|^snapshot replay:' "$1" >"$TMP/stripped.log"
    grep -v '^snapshot replay:' "$TMP/plain.log" >"$TMP/plain-stripped.log"
    cmp "$TMP/stripped.log" "$TMP/plain-stripped.log" \
        || fail "$3: summary differs from the unpruned campaign"
    # Same per-trial transcript, worker completion order aside. The
    # header line legitimately differs (it records the pruning and
    # stratification configuration the log ran under), so only trial
    # records are compared.
    grep -v '"version"' "$2" | sort >"$TMP/want.sorted"
    grep -v '"version"' "$TMP/plain.jsonl" | sort >"$TMP/got.sorted"
    cmp "$TMP/want.sorted" "$TMP/got.sorted" \
        || fail "$3: checkpoint transcript differs from the unpruned campaign"
}

check_pruned "$TMP/pruned.log" "$TMP/pruned.jsonl" "snapshot replay"
check_pruned "$TMP/pruned-full.log" "$TMP/pruned-full.jsonl" "full re-execution"

echo "prunecheck: PASS"
