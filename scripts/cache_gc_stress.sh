#!/usr/bin/env bash
#===- cache_gc_stress.sh - concurrent bounded-disk-cache stress ----------===#
#
# Two compiler processes hammer one LIMPET_CACHE_DIR under a budget far
# smaller than the combined suite output, so both keep evicting files the
# other may be about to read or has just written:
#
#  1. Two `--suite` runs (different widths, so disjoint artifact keys)
#     race into the same disk tier with LIMPET_CACHE_MAX_BYTES set. Both
#     must exit 0 -- a file evicted under a concurrent reader/writer is
#     never an error, just a miss.
#  2. After both finish, the directory must be within the budget (the
#     last store always runs eviction) and every surviving file must be
#     a loadable artifact (the winner of each race is intact).
#  3. `--cache-gc` with a tighter budget shrinks it further and reports
#     before/after byte counts.
#
# Usage: cache_gc_stress.sh <path-to-limpetc>
#
#===----------------------------------------------------------------------===#

set -euo pipefail

LIMPETC=${1:?usage: cache_gc_stress.sh <path-to-limpetc>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/limpet-gc-stress.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "cache_gc_stress: FAIL: $*" >&2; exit 1; }

# Bytes of the .lmpa artifacts, which the budget bounds (`du` would add
# the directory's own entry).
dir_bytes() {
  find "$1" -maxdepth 1 -name '*.lmpa' -printf '%s\n' |
    awk '{ s += $1 } END { print s + 0 }'
}

export LIMPET_CACHE_DIR="$WORK/cache"
mkdir -p "$LIMPET_CACHE_DIR"

# The full suite at one width is ~40 MB of artifacts; 8 MB keeps the GC
# busy for the whole run while staying well above the largest single
# artifact (~3 MB), so a fresh store never evicts itself.
BUDGET=$((8 * 1024 * 1024))
export LIMPET_CACHE_MAX_BYTES=$BUDGET

# --- 1. two concurrent suite writers ----------------------------------------
"$LIMPETC" --suite --width 4 >"$WORK/w4.out" 2>&1 &
PID4=$!
"$LIMPETC" --suite --width 8 >"$WORK/w8.out" 2>&1 &
PID8=$!
wait "$PID4" || fail "width-4 suite writer failed under concurrent GC"
wait "$PID8" || fail "width-8 suite writer failed under concurrent GC"
echo "cache_gc_stress: both concurrent suite writers exited 0"

# --- 2. the directory honors the budget and survivors are intact -----------
AFTER=$(dir_bytes "$LIMPET_CACHE_DIR")
[ "$AFTER" -le "$BUDGET" ] \
  || fail "cache dir is $AFTER bytes, over the $BUDGET budget"
COUNT=$(find "$LIMPET_CACHE_DIR" -maxdepth 1 -name '*.lmpa' | wc -l)
[ "$COUNT" -ge 1 ] || fail "eviction emptied the cache entirely"
for f in "$LIMPET_CACHE_DIR"/*.lmpa; do
  "$LIMPETC" HodgkinHuxley --load-artifact "$f" --run --steps 5 --cells 8 \
    --no-cache >/dev/null 2>"$WORK/load.err" && continue
  # A survivor for a different model is still fine -- the loader must
  # reject it as a mismatch, not crash or report corruption.
  grep -qi 'corrupt\|truncat\|checksum' "$WORK/load.err" \
    && fail "surviving artifact $f is corrupt after concurrent eviction"
done
echo "cache_gc_stress: $COUNT intact artifact(s), $AFTER <= $BUDGET bytes"

# --- 3. --cache-gc tightens the tier on demand ------------------------------
TIGHT=$((3 * 1024 * 1024))
LIMPET_CACHE_MAX_BYTES=$TIGHT "$LIMPETC" --cache-gc >"$WORK/gc.out" 2>&1 \
  || fail "--cache-gc failed"
grep -q 'evicted' "$WORK/gc.out" || fail "--cache-gc printed no report"
FINAL=$(dir_bytes "$LIMPET_CACHE_DIR")
[ "$FINAL" -le "$TIGHT" ] \
  || fail "--cache-gc left $FINAL bytes, over the $TIGHT budget"
echo "cache_gc_stress: --cache-gc shrank the tier to $FINAL bytes"
echo "cache_gc_stress: PASS"
