#!/usr/bin/env bash
# servercheck.sh — the campaign server's chaos drill, run by `make check`.
#
# Every job runs as one campaign inside the server process, so the
# failure domain is the server itself. The drill exercises the
# crash-tolerance story against real processes:
#
#   1. start fiserver with a per-trial chaos delay so the campaign stays
#      open long enough to attack
#   2. submit a sharded pathfinder campaign, detached
#   3. once the job's checkpoint log holds trial records, SIGKILL the
#      whole server (kernel-enforced crash: no drain runs, the log's tail
#      may be torn mid-line)
#   4. restart over the same spool, chaos still on, and require the job
#      to be re-queued and running again (its log grows past what the
#      killed server left)
#   5. SIGTERM the server mid-campaign and require exit code 143 with
#      the job re-queued on disk
#   6. restart once more (no chaos, no result cache), attach, wait for
#      the job to finish, run the same campaign cleanly with a different
#      shard count and compare the per-trial JSONL dumps byte for byte
#   7. restart with the result cache on and submit the campaign twice:
#      the second job must be answered from the cache ("cached": true)
#      by replaying the first job's log, and both transcripts must be
#      byte-identical to the clean run's
#
# Passing means: a SIGKILLed server resumed from its torn log, a drained
# server resumed after restart, neither that nor the shard count
# changed a single trial outcome, and a cached result replays the same
# trials.
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d /tmp/servercheck.XXXXXX)
SPOOL="$TMP/spool"
SRV_PID=""

cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "servercheck: FAIL: $*" >&2
    exit 1
}

echo "servercheck: building binaries"
$GO build -o "$TMP/fiserver" ./cmd/fiserver
$GO build -o "$TMP/fi" ./cmd/fi

start_server() { # args: extra fiserver flags...
    rm -f "$TMP/addr"
    "$TMP/fiserver" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -spool "$SPOOL" "$@" \
        >>"$TMP/server.log" 2>&1 &
    SRV_PID=$!
    i=0
    while [ ! -s "$TMP/addr" ]; do
        i=$((i + 1))
        [ $i -gt 100 ] && fail "server did not write its address (log: $(cat "$TMP/server.log"))"
        sleep 0.1
    done
    ADDR=$(cat "$TMP/addr")
}

job_state() { # prints the job's on-disk lifecycle state
    sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' "$SPOOL/jobs/$JOB/state.json"
}

trial_records() { # prints how many trial records the job's checkpoint log holds
    cat "$SPOOL/jobs/$JOB/trials.jsonl" 2>/dev/null | grep -c '"outcome"' || true
}

N=1200
SEED=20260807
SHARDS=3
CLEAN_SHARDS=2

echo "servercheck: starting fiserver (chaos delay)"
start_server -chaos-trial-delay 20ms

echo "servercheck: submitting sharded campaign (n=$N, shards=$SHARDS)"
SUBMIT=$("$TMP/fi" -remote "http://$ADDR" -program pathfinder -n $N -seed $SEED \
    -shards $SHARDS -workers 1 -detach -progress=false)
JOB=$(echo "$SUBMIT" | sed -n 's/^submitted job \(job-[0-9a-f]*\).*/\1/p')
[ -n "$JOB" ] || fail "could not parse job id from: $SUBMIT"
echo "servercheck: job $JOB"

echo "servercheck: waiting for the job's checkpoint log to hold trial records"
i=0
while [ "$(trial_records)" -lt $SHARDS ]; do
    i=$((i + 1))
    [ $i -gt 300 ] && fail "no trial records appeared in the job's checkpoint log"
    sleep 0.1
done
kill -9 "$SRV_PID" || fail "could not SIGKILL server $SRV_PID"
rc=0
wait "$SRV_PID" 2>/dev/null || rc=$?
SRV_PID=""
[ "$rc" -eq 137 ] || fail "server exit code $rc after SIGKILL, want 137"
KILLED_AT=$(trial_records)
echo "servercheck: SIGKILLed the server with $KILLED_AT trial records on disk (state $(job_state))"

echo "servercheck: restarting server over the same spool (chaos on)"
start_server -chaos-trial-delay 20ms
i=0
while [ "$(job_state)" != "running" ] || [ "$(trial_records)" -le $((KILLED_AT + SHARDS)) ]; do
    i=$((i + 1))
    [ $i -gt 300 ] && fail "job not running again after restart (state $(job_state), $(trial_records) records, $KILLED_AT at kill)"
    sleep 0.1
done
echo "servercheck: job re-queued and running again ($(trial_records) trial records)"

echo "servercheck: SIGTERMing the server mid-campaign"
kill -TERM "$SRV_PID"
rc=0
wait "$SRV_PID" || rc=$?
SRV_PID=""
[ "$rc" -eq 143 ] || fail "server exit code $rc after SIGTERM, want 143"
STATE=$(job_state)
[ "$STATE" = "queued" ] || fail "job state after drain is '$STATE', want 'queued'"
echo "servercheck: server exited 143, job re-queued on disk"

# The result cache must be off here: with it on, the clean comparison
# run below would be answered from the resumed job's cached result, and
# the bit-identity check would compare the result against itself.
echo "servercheck: restarting server over the same spool (no chaos)"
start_server -result-cache=false

echo "servercheck: attaching to the resumed job"
"$TMP/fi" -remote "http://$ADDR" -job "$JOB" -trials-out "$TMP/resumed.jsonl" \
    -progress=false >"$TMP/attach.log" 2>&1 ||
    fail "resumed job did not complete: $(cat "$TMP/attach.log")"
grep -q "^job $JOB: done" "$TMP/attach.log" || fail "resumed job not done: $(cat "$TMP/attach.log")"

echo "servercheck: running the same campaign cleanly for comparison (shards=$CLEAN_SHARDS)"
"$TMP/fi" -remote "http://$ADDR" -program pathfinder -n $N -seed $SEED \
    -shards $CLEAN_SHARDS -trials-out "$TMP/clean.jsonl" -progress=false \
    >"$TMP/clean.log" 2>&1 || fail "clean run failed: $(cat "$TMP/clean.log")"

cmp "$TMP/resumed.jsonl" "$TMP/clean.jsonl" ||
    fail "resumed campaign diverged from clean run (kill+restart+drain+resume or the shard count changed trial outcomes)"

LINES=$(wc -l <"$TMP/resumed.jsonl")
[ "$LINES" -eq $N ] || fail "expected $N trial records, got $LINES"

stop_server() {
    kill -TERM "$SRV_PID"
    rc=0
    wait "$SRV_PID" || rc=$?
    SRV_PID=""
    [ "$rc" -eq 143 ] || fail "server exit code $rc on SIGTERM, want 143"
}
stop_server

cached_run() { # args: label; runs the campaign, prints the job's cached flag
    "$TMP/fi" -remote "http://$ADDR" -program pathfinder -n $N -seed $SEED \
        -shards $CLEAN_SHARDS -trials-out "$TMP/$1.jsonl" -progress=false \
        >"$TMP/$1.log" 2>&1 || fail "$1 run failed: $(cat "$TMP/$1.log")"
    local id
    id=$(sed -n 's/^job \(job-[0-9a-f]*\): done.*/\1/p' "$TMP/$1.log")
    [ -n "$id" ] || fail "$1 run not done: $(cat "$TMP/$1.log")"
    grep -q '"cached": true' "$SPOOL/jobs/$id/result.json" && echo true || echo false
}

echo "servercheck: restarting server with the result cache on; submitting the campaign twice"
start_server
[ "$(cached_run first)" = false ] || fail "first submission was served from an empty result cache"
[ "$(cached_run second)" = true ] || fail "second submission missed the result cache"
cmp "$TMP/first.jsonl" "$TMP/clean.jsonl" || fail "first cache-on run diverged from the clean run"
cmp "$TMP/second.jsonl" "$TMP/first.jsonl" || fail "cached result diverged from the run that stored it"

echo "servercheck: shutting down"
stop_server

echo "servercheck: PASS (SIGKILLed server resumed, drained server resumed, cached result replayed, $LINES trials bit-identical)"
