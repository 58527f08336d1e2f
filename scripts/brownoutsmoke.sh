#!/bin/sh
# brownoutsmoke: end-to-end smoke for overload control.
#
# Boots mariond (race-instrumented) with a tiny adaptive admission
# budget, the brownout ladder, circuit breakers, and a deterministic
# serve-site fault armed against r2000/rase, then proves, in order:
#   1. repeated failures on one (target, strategy) trip its breaker and
#      later requests are rerouted down the fallback chain, leaving a
#      replayable quarantine bundle;
#   2. a burst past capacity with mixed deadlines engages the brownout
#      ladder (degraded answers are labeled), sheds cleanly instead of
#      failing, and the server recovers to pressure level 0;
#   3. after recovery, served assembly is byte-identical to marionc
#      again, and `marionc -replay` reproduces the quarantined input;
#   4. SIGTERM still drains gracefully.
#
# Artifacts: BENCH_brownout.json (split, latencies, brownout/breaker
# counters) in the repo root.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "brownoutsmoke: building (mariond with -race)"
$GO build -race -o "$tmp/mariond" ./cmd/mariond
$GO build -o "$tmp/marionload" ./cmd/marionload
$GO build -o "$tmp/marionc" ./cmd/marionc

# The budget (1 compile, 4 waiting, adaptive up to 4) is sized against
# the burst of step 2: 32 clients must overflow it whatever the
# machine's speed. 2 + 8 did until a race-instrumented cold compile got
# 2.5x faster; then the burst, 95 % cache hits, sometimes fitted.
"$tmp/mariond" -addr 127.0.0.1:0 -addrfile "$tmp/addr" \
    -admit 1 -queue 4 -slo-ms 50 -brownout \
    -breaker 3 -breakercooldown 2s -quarantine "$tmp/quarantine" \
    -cachedir "$tmp/cache" \
    -faults 'serve:err@fn=r2000/rase@max=4' \
    >"$tmp/mariond.log" 2>&1 &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
        echo "brownoutsmoke: FAIL: mariond never came up" >&2
        cat "$tmp/mariond.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(head -n 1 "$tmp/addr")
echo "brownoutsmoke: mariond up at $addr"

# 1. Breaker drill, sequential so the brownout ladder stays out of the
#    way: the first three r2000/rase requests hit the armed fault and
#    fail (tolerated via -max-other), tripping the breaker; the rest
#    must be rerouted down the fallback chain. Other targets are
#    untouched (proved by the byte-compare in step 3).
"$tmp/marionload" -addr "$addr" -n 8 -c 1 \
    -targets r2000 -strategies rase \
    -require-reroute -max-other 3
if [ -z "$(find "$tmp/quarantine" -name config.json 2>/dev/null | head -n 1)" ]; then
    echo "brownoutsmoke: FAIL: breaker tripped but no quarantine bundle written" >&2
    exit 1
fi
echo "brownoutsmoke: breaker tripped, rerouted, bundle quarantined"

# 2. Burst 4x past capacity with mixed deadlines: load must shed (429
#    with a computed Retry-After, which -retries honors), the brownout
#    ladder must engage (answers labeled with their level), nothing
#    may hang, only a bounded handful of requests may fail outright
#    (tight deadlines expiring mid-compile), and within -recover the
#    server must report pressure level 0 again.
"$tmp/marionload" -addr "$addr" -n 160 -c 32 \
    -deadlines 250,10000 -retries 2 -backoff 50ms \
    -require-shed -require-brownout -max-other 16 \
    -recover 20s -json BENCH_brownout.json
echo "brownoutsmoke: brownout engaged and recovered to level 0"

# 3. Full fidelity after recovery: served assembly byte-identical to
#    marionc again, and the quarantine bundle replays offline.
f=$(ls examples/c/*.c | head -n 1)
"$tmp/marionc" -target r2000 -strategy postpass "$f" >"$tmp/want.s"
"$tmp/marionload" -addr "$addr" -one "$f" \
    -target r2000 -strategy postpass >"$tmp/got.s"
if ! cmp -s "$tmp/want.s" "$tmp/got.s"; then
    echo "brownoutsmoke: FAIL: post-recovery output differs from marionc for $f" >&2
    exit 1
fi
bundle=$(find "$tmp/quarantine" -name config.json | head -n 1)
bundle=$(dirname "$bundle")
if ! "$tmp/marionc" -replay "$bundle" >"$tmp/replay.s" 2>"$tmp/replay.log"; then
    echo "brownoutsmoke: FAIL: marionc -replay $bundle failed" >&2
    cat "$tmp/replay.log" >&2
    exit 1
fi
if [ ! -s "$tmp/replay.s" ]; then
    echo "brownoutsmoke: FAIL: replay produced no assembly" >&2
    exit 1
fi
echo "brownoutsmoke: post-recovery output byte-identical, bundle replays"

# 4. Graceful drain.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
if [ "$status" -ne 0 ]; then
    echo "brownoutsmoke: FAIL: drain exited $status" >&2
    cat "$tmp/mariond.log" >&2
    exit 1
fi
if ! grep -q "drained" "$tmp/mariond.log"; then
    echo "brownoutsmoke: FAIL: no drain line in daemon log" >&2
    cat "$tmp/mariond.log" >&2
    exit 1
fi
echo "brownoutsmoke: PASS (brownout, breaker, replay, drain all clean)"
