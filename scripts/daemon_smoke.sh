#!/usr/bin/env bash
#===- daemon_smoke.sh - limpetd end-to-end robustness smoke --------------===#
#
# The daemon's whole contract through the real binaries and real signals
# (docs/DAEMON.md):
#
#  1. Liveness: start limpetd, ping it.
#  2. A clean job runs to "finished" and reports a state checksum.
#  3. One run description, two entry points: limpetc --run --guard and
#     the same flags submitted through limpetctl end with the same
#     checksum to all 17 digits (plain, vector, tissue and sweep runs,
#     the sweep with the same quarantine count), and limpetc rejects a
#     spec admission rejects (exit 1).
#  4. Fault isolation: a job with an unknown model fails alone (exit 4)
#     and the daemon keeps serving.
#  5. Backpressure: a structurally invalid spec is rejected (exit 3)
#     with a machine-readable reason, not a dropped connection.
#  6. Cancellation: a long-running job cancelled mid-run reaches the
#     "cancelled" terminal state (exit 5).
#  7. Durable queue recovery: SIGKILL the daemon while a checkpointing
#     job is mid-run; a restarted daemon replays it from its newest
#     valid checkpoint and its final checksum is bit-identical to an
#     uninterrupted run of the same spec.
#  8. Graceful drain: the shutdown verb stops the daemon with exit 0.
#
# Usage: daemon_smoke.sh <limpetd> <limpetctl> [<limpetc>]
# (limpetc defaults to the one next to limpetd)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

USAGE="usage: daemon_smoke.sh <limpetd> <limpetctl> [<limpetc>]"
LIMPETD=${1:?$USAGE}
LIMPETCTL=${2:?$USAGE}
LIMPETC=${3:-$(dirname "$LIMPETD")/limpetc}
[ -x "$LIMPETC" ] || { echo "daemon_smoke: no limpetc at $LIMPETC" >&2; exit 1; }
WORK=$(mktemp -d "${TMPDIR:-/tmp}/limpet-daemon-smoke.XXXXXX")
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK=$WORK/limpetd.sock
STATE=$WORK/state
MODEL=HodgkinHuxley

fail() { echo "daemon_smoke: FAIL: $*" >&2; exit 1; }

ctl() { "$LIMPETCTL" --socket "$SOCK" "$@"; }

checksum_of_event() {
  # {"event":"finished",...,"checksum":"-4097.9..."} -> the %.17g string
  grep -o '"checksum":"[^"]*"' "$1" | tail -1 | cut -d'"' -f4
}

start_daemon() {
  # sim-threads 1: the smoke populations are small enough that per-step
  # fork-join overhead would dominate; two runners still exercise the
  # multi-tenant concurrency.
  "$LIMPETD" --socket "$SOCK" --state-dir "$STATE" \
    --runners 2 --sim-threads 1 >"$1" 2>&1 &
  DPID=$!
  for _ in $(seq 1 100); do
    if ctl ping >/dev/null 2>&1; then return 0; fi
    kill -0 "$DPID" 2>/dev/null || fail "daemon died at startup (see $1)"
    sleep 0.05
  done
  fail "daemon never answered ping (see $1)"
}

unset LIMPET_CACHE_DIR
# fsync protects against power loss, not SIGKILL: a kill -9 leaves the
# page cache intact, so the replay contract under test is unchanged and
# the dense checkpoint cadences below stay fast on slow filesystems.
# (This also exercises the documented LIMPET_NO_FSYNC escape hatch.)
export LIMPET_NO_FSYNC=1

# --- 1. liveness -------------------------------------------------------------
start_daemon "$WORK/daemon1.log"
echo "daemon_smoke: daemon up (pid $DPID)"

# --- 2. clean job ------------------------------------------------------------
ctl submit --model $MODEL --cells 64 --steps 4000 --wait >"$WORK/ref.out" \
  || fail "clean job did not finish (exit $?)"
REF=$(checksum_of_event "$WORK/ref.out")
[ -n "$REF" ] || fail "finished event carried no checksum"
echo "daemon_smoke: clean job finished, checksum $REF"

# --- 3. one spec through limpetc and limpetd ---------------------------------
# Both build the run from one RunSpec through sim::buildRun, and both
# print the checksum as %.17g, so the strings must be equal.
parity() { # <tag> <flags shared by limpetc --run and limpetctl submit>
  local tag=$1
  shift
  "$LIMPETC" $MODEL --run --guard "$@" >"$WORK/$tag.limpetc.out" 2>&1 \
    || fail "$tag: limpetc --run failed (see $WORK/$tag.limpetc.out)"
  ctl submit --model $MODEL "$@" --wait >"$WORK/$tag.ctl.out" 2>&1 \
    || fail "$tag: limpetd job did not finish"
  local cli daemon
  cli=$(grep 'state checksum' "$WORK/$tag.limpetc.out" | sed 's/.*= //')
  daemon=$(checksum_of_event "$WORK/$tag.ctl.out")
  [ -n "$cli" ] && [ "$cli" = "$daemon" ] \
    || fail "$tag: limpetc checksum '$cli' != limpetd checksum '$daemon'"
  echo "daemon_smoke: $tag: limpetc = limpetd = $cli"
}
parity plain --cells 64 --steps 2000
parity vec8 --cells 64 --steps 2000 --width 8
parity tissue --tissue 16x8 --steps 2000
parity sweep --sweep 'gNa=100,1e9,140' --member-cells 4 --steps 2000
grep -q '^ensemble members: 2 ok, 1 quarantined$' "$WORK/sweep.limpetc.out" \
  || fail "limpetc sweep did not quarantine exactly the poison member"
grep -q '"members_quarantined":1' "$WORK/sweep.ctl.out" \
  || fail "limpetd sweep did not quarantine exactly the poison member"
# --width 8 means limpetMLIR at width 8 to both tools.
grep -aq '"width":8,"layout":"aosoa","fastmath":true' "$STATE/journal.lmpj" \
  || fail "limpetctl --width 8 did not submit the limpetmlir configuration"
# limpetc rejects what admission rejects, before it compiles.
for bad in "--cells 0" "--steps -5" "--dt 0" "--tissue 8 --dx 0"; do
  set +e
  # shellcheck disable=SC2086
  "$LIMPETC" $MODEL --run $bad >"$WORK/bad.out" 2>&1
  RC=$?
  set -e
  [ "$RC" = 1 ] || fail "limpetc --run $bad exited $RC, want 1"
done
echo "daemon_smoke: limpetc rejects invalid run fields like admission"

# --- 4. fault isolation ------------------------------------------------------
set +e
ctl submit --model NoSuchModel --wait >"$WORK/fault.out" 2>&1
RC=$?
set -e
[ "$RC" = 4 ] || fail "unknown-model job exited $RC, want 4 (failed)"
ctl ping >/dev/null || fail "daemon unhealthy after a failed job"
echo "daemon_smoke: faulting job failed alone, daemon healthy"

# --- 5. admission rejects bad specs -----------------------------------------
set +e
ctl submit --model $MODEL --cells 0 --wait >"$WORK/reject.out" 2>&1
RC=$?
set -e
[ "$RC" = 3 ] || fail "invalid spec exited $RC, want 3 (rejected)"
grep -q '"event":"rejected"' "$WORK/reject.out" \
  || fail "rejection carried no machine-readable event"
echo "daemon_smoke: invalid spec rejected with reason"

# --- 6. cancellation ---------------------------------------------------------
ctl submit --model $MODEL --cells 64 --steps 200000000 \
  --checkpoint-every 50000 >"$WORK/cancel-submit.out" \
  || fail "long job submit failed"
CANCEL_ID=$(grep -o '"id":[0-9]*' "$WORK/cancel-submit.out" | head -1 | cut -d: -f2)
[ -n "$CANCEL_ID" ] || fail "no id in accepted event"
sleep 0.3 # let it start stepping
ctl cancel --id "$CANCEL_ID" >/dev/null || fail "cancel verb failed"
set +e
ctl wait --id "$CANCEL_ID" >"$WORK/cancel-wait.out" 2>&1
RC=$?
set -e
[ "$RC" = 5 ] || fail "cancelled job exited $RC, want 5 (cancelled)"
echo "daemon_smoke: mid-run cancel reached the cancelled state"

# --- 7. SIGKILL -> restart -> replay bit-identical ---------------------------
# ~5 s of stepping at scalar speed: long enough that the kill lands
# mid-run with checkpoints on disk, short enough that replay + reference
# stay well inside the test budget.
ctl submit --model $MODEL --cells 128 --steps 200000 \
  --checkpoint-every 10000 >"$WORK/victim-submit.out" \
  || fail "victim job submit failed"
VICTIM_ID=$(grep -o '"id":[0-9]*' "$WORK/victim-submit.out" | head -1 | cut -d: -f2)
[ -n "$VICTIM_ID" ] || fail "no id in victim accepted event"

# Kill -9 once the victim has durable checkpoints to resume from.
KILLED=0
for _ in $(seq 1 200); do
  if [ "$(ls "$STATE/job-$VICTIM_ID/ckpt"/ckpt-*.lmpc 2>/dev/null | wc -l)" -ge 2 ]; then
    kill -9 "$DPID" || fail "could not SIGKILL the daemon"
    wait "$DPID" 2>/dev/null || true
    KILLED=1
    break
  fi
  sleep 0.05
done
[ "$KILLED" = 1 ] || fail "victim job never wrote two checkpoints"
echo "daemon_smoke: SIGKILLed daemon mid-job $VICTIM_ID"

start_daemon "$WORK/daemon2.log"
grep -q 'replaying' "$WORK/daemon2.log" \
  || fail "restarted daemon did not report replaying unfinished jobs"
set +e
ctl wait --id "$VICTIM_ID" >"$WORK/replay-wait.out" 2>&1
RC=$?
set -e
[ "$RC" = 0 ] || fail "replayed job exited $RC, want 0 (finished)"
REPLAYED=$(checksum_of_event "$STATE/job-$VICTIM_ID/result.json")
[ -n "$REPLAYED" ] || fail "replayed job left no checksum in result.json"

# Reference: the same spec, uninterrupted, in the restarted daemon.
ctl submit --model $MODEL --cells 128 --steps 200000 \
  --checkpoint-every 10000 --wait \
  >"$WORK/replay-ref.out" || fail "replay reference run failed"
REPLAY_REF=$(checksum_of_event "$WORK/replay-ref.out")
[ "$REPLAYED" = "$REPLAY_REF" ] \
  || fail "replayed job diverged: replayed=$REPLAYED ref=$REPLAY_REF"
echo "daemon_smoke: SIGKILL -> restart -> replay bit-identical OK"

# --- 8. graceful drain -------------------------------------------------------
ctl shutdown >/dev/null || fail "shutdown verb failed"
wait "$DPID" && RC=0 || RC=$?
DPID=""
[ "$RC" = 0 ] || fail "daemon shutdown exit code was $RC"
echo "daemon_smoke: graceful drain OK"

echo "daemon_smoke: PASS"
