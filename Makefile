# Tier-1 verification plus the concurrency guardrails for the parallel
# per-function back end. `make ci` is what CI (and ROADMAP.md's tier-1
# line) runs.

GO ?= go

.PHONY: build test vet race bench benchcheck benchsmoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector is the guardrail for the parallel back end. Both
# this and `test` run cmd/mariond's TestServeDrills, which boots the
# daemon in-process and runs the load, overload and trace drills
# against it over TCP.
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

# The emitted-code verification and chaos sweeps run inside `go test`:
# TestLivermoreCorpusClean (internal/verify) compiles the Livermore
# suite on every target under every strategy with the verifier on, and
# TestGoldenDigests does the same for gentest.Golden (examples/c and the
# big-block and pressure fixtures); TestFaultMatrix (internal/experiments)
# arms every fault-injection site x mode on every target under every
# strategy, and each faulted function must degrade and re-verify clean.
# Any finding or outright failure fails the test.

ci: build vet test race benchcheck benchsmoke
