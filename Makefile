# Tier-1 verification plus the concurrency guardrails for the parallel
# per-function back end. `make ci` is what CI (and ROADMAP.md's tier-1
# line) runs.

GO ?= go

.PHONY: build test vet race bench benchcheck benchsmoke loadsmoke brownoutsmoke tracesmoke verify-all chaos ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector is the guardrail for the parallel back end.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem

# bench/ is its own module, so `go build ./...` and `go test ./...`
# never compile it; vet and test it here so a change to the
# driver/core/server API it builds against cannot break the benchmark
# unnoticed.
benchcheck:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# One-iteration benchmark pass: keeps BenchmarkSelect /
# BenchmarkParallelBackend and friends compiling and running under CI
# without paying for real measurement.
benchsmoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...

# Emitted-code verification sweep: the machine-description-driven
# verifier (internal/verify) over the Livermore suite on every target
# under every strategy. Expected output is an all-zero finding matrix;
# any finding fails the build. (examples/c and the driver's fixtures get
# the same sweep inside `go test`: TestGoldenDigests compiles them with
# the verifier on.)
verify-all:
	$(GO) run ./cmd/marionstats -verify

# Compile-service smoke: boot a race-instrumented mariond on an
# ephemeral port, burst it past its admission budget (asserting a clean
# 2xx/429 split and byte-identical repeat bodies), byte-compare served
# assembly against marionc for every example source, then SIGTERM and
# require a clean drain with a flushed disk cache tier. Emits
# BENCH_serve.json.
loadsmoke:
	GO="$(GO)" sh scripts/loadsmoke.sh

# Overload smoke: boot a race-instrumented mariond with the adaptive
# limiter, brownout ladder, and circuit breakers armed (plus a
# deterministic serve-site fault against r2000/rase), trip a breaker
# and require rerouting plus a replayable quarantine bundle, burst 4x
# past capacity with mixed deadlines and require brownout engagement,
# a clean shed (no 5xx storm), and full recovery to pressure level 0;
# post-recovery output must again be byte-identical to marionc. Emits
# BENCH_brownout.json.
brownoutsmoke:
	GO="$(GO)" sh scripts/brownoutsmoke.sh

# Observability smoke: boot a race-instrumented mariond with a trace
# ring, a 100ms trace SLO, a JSON access log, and one deterministic
# serve-site hang; burst it and require that /metrics parses as
# Prometheus text exposition, /tracez retains the SLO-breaching
# expired trace with a >=95%-coverage span tree, every access-log line
# is JSON carrying the slow request's ID exactly once, and output is
# byte-identical to marionc with tracing on and off (-trace-ring 0).
tracesmoke:
	GO="$(GO)" sh scripts/tracesmoke.sh

# Chaos sweep: arm every fault-injection site x mode (panic, err, hang)
# on every target under every strategy and prove the process never
# dies — each faulted function walks the degradation ladder and the
# fallback output re-verifies clean. Any outright failure or verifier
# finding fails the build.
chaos:
	$(GO) run ./cmd/marionstats -faultmatrix

ci: build vet test race benchcheck benchsmoke loadsmoke brownoutsmoke tracesmoke verify-all chaos
