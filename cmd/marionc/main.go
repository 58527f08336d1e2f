// Command marionc is the Marion compiler driver: it compiles C-subset
// source files to scheduled, register-allocated assembly for any shipped
// target, under any code generation strategy.
//
// Usage:
//
//	marionc -target r2000 -strategy postpass file.c
//	marionc -target i860 -strategy ips -stats file.c
//	marionc -target r2000 -verify file.c
//	marionc -target r2000 -workers 8 file.c
//	marionc -target r2000 -timeout 2s file.c
//	marionc -target r2000 -strict -timeout 2s file.c
//	marionc -target r2000 -faults 'select:panic@fn=3' file.c
//	marionc -replay /var/quarantine/r2000-rase-1
//
// -workers bounds the parallel per-function back end (default
// GOMAXPROCS); the emitted assembly is identical for any worker count.
// -verify re-checks the emitted code against the machine description
// (internal/verify); findings are printed per instruction and make the
// exit status non-zero.
//
// -timeout is the per-function compilation budget: a function that
// exceeds it fails with a typed budget error instead of hanging the
// compiler. On failure or budget exhaustion the function is retried
// down the degradation ladder (RASE -> IPS -> Postpass -> Safe), each
// fallback re-verified against the machine description before
// acceptance; every degradation prints a note. -strict disables the
// ladder: the failure becomes a per-function diagnostic and a non-zero
// exit.
//
// -faults (or MARION_FAULTS) arms the deterministic fault-injection
// harness (internal/faults) for chaos testing.
//
// -trace records a span tree of the compile (per-function, per-attempt,
// per-phase spans with attributes) and dumps it as indented JSON to
// stderr — the offline twin of mariond's GET /tracez.
//
// -cache enables the content-addressed compilation cache
// (internal/cache): each function is looked up by its canonical IR
// fingerprint, the machine-description fingerprint and the effective
// configuration before the back end runs; hits are byte-identical to a
// fresh compile. -cachedir persists entries on disk (checksummed;
// corrupt entries are rejected and recompiled) so repeated marionc runs
// share them. With -stats, cache hit/miss counts print to stderr.
// An armed -faults spec disables the cache for that run.
//
// -replay takes a quarantine bundle directory written by mariond when
// a circuit breaker trips (internal/overload): the bundle's IL is
// compiled under the bundle's recorded target, strategy, and options,
// reproducing the failing request offline. Combine with -faults to
// re-arm the injection that tripped it, or -strategy/-target to
// override the recorded configuration while minimizing.
//
// A file ending in .il is read as textual IL (internal/iltext) and
// skips the C front end; -emit-il stops after the front end and prints
// the module as textual IL instead of compiling it, so the two compose
// into a C -> IL -> assembly pipeline across marionc runs (or across
// machines: mariond accepts the same IL).
//
// When compilation fails, marionc prints EVERY structured diagnostic —
// one line per failing function with its phase — not just the first;
// a recovered phase panic prints its (normalized) stack.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/iltext"
	"marion/internal/overload"
	"marion/internal/pipeline"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/trace"
	"marion/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive
// the full command. Exit status: 0 success, 1 compile error or verify
// findings, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marionc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "r2000", "target machine (see -list)")
	strat := fs.String("strategy", "postpass",
		"code generation strategy: "+strings.Join(strategy.KindNames(), ", "))
	stats := fs.Bool("stats", false, "print per-function back end statistics")
	list := fs.Bool("list", false, "list available targets and exit")
	out := fs.String("o", "", "write assembly to file instead of stdout")
	workers := fs.Int("workers", 0, "parallel back end workers (0 = GOMAXPROCS)")
	doVerify := fs.Bool("verify", false,
		"re-check emitted code against the machine description; findings fail the build")
	timeout := fs.Duration("timeout", 0,
		"per-function compilation budget (0 = none); exceeding it degrades or fails the function")
	strict := fs.Bool("strict", false,
		"disable the graceful-degradation ladder: failures and budget exhaustion are fatal")
	faultSpec := fs.String("faults", os.Getenv("MARION_FAULTS"),
		"fault-injection spec, e.g. 'select:panic@fn=3' (default $MARION_FAULTS)")
	useCache := fs.Bool("cache", false,
		"enable the content-addressed compilation cache (in-memory; add -cachedir to persist)")
	cacheDir := fs.String("cachedir", "",
		"on-disk cache directory, shared across runs (implies -cache)")
	emitIL := fs.Bool("emit-il", false,
		"stop after the front end and print the module as textual IL (compilable by marionc/mariond)")
	replay := fs.String("replay", "",
		"replay a mariond quarantine bundle directory under its recorded configuration")
	doTrace := fs.Bool("trace", false,
		"trace the compile (per-function, per-attempt, per-phase spans) and dump the span tree as JSON to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, t := range targets.Names() {
			fmt.Fprintln(stdout, t)
		}
		return 0
	}

	// What to compile: a quarantine bundle's IL under its recorded
	// configuration, or the one file named on the command line. Flags the
	// user set explicitly override a bundle's recording, so a bundle can
	// be minimized interactively.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	u := unit{target: *target, out: *out, stats: *stats}
	stratName, spec := *strat, *faultSpec
	var bundle *overload.Bundle
	if *replay != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: marionc -replay <bundle-dir>")
			return 2
		}
		b, il, err := overload.LoadBundle(*replay)
		if err != nil {
			return fail(stderr, err)
		}
		bundle = b
		u.file, u.src, u.lang = filepath.Join(*replay, overload.ILFile), il, "il"
		if !set["target"] {
			u.target = b.Target
		}
		if !set["strategy"] {
			stratName = b.Strategy
		}
		if !set["faults"] {
			// A replay is armed only by an explicit -faults, never by an
			// ambient $MARION_FAULTS.
			spec = ""
		}
	} else {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: marionc [-target T] [-strategy S] [-verify] file.c")
			return 2
		}
		u.file = fs.Arg(0)
		src, err := os.ReadFile(u.file)
		if err != nil {
			return fail(stderr, err)
		}
		u.src, u.lang = string(src), "c"
		if strings.HasSuffix(u.file, ".il") {
			u.lang = "il"
		}
		if *emitIL {
			mod, err := driver.Lower(u.lang, u.file, u.src) // IL input: a normalizing re-print
			if err != nil {
				return fail(stderr, err)
			}
			return emit(stdout, stderr, *out, iltext.Print(mod))
		}
	}

	// The back end configuration, built from the flags exactly once.
	kind, err := strategy.ParseKind(stratName)
	if err != nil {
		return fail(stderr, err)
	}
	fset, err := faults.Parse(spec)
	if err != nil {
		fmt.Fprintln(stderr, "marionc:", err)
		return 2
	}
	cfg := driver.Config{
		Strategy: kind,
		Workers:  *workers,
		Verify:   *doVerify,
		Budget:   *timeout,
		Strict:   *strict,
		Faults:   fset,
	}
	if *useCache || *cacheDir != "" {
		ch, err := cache.New(cache.Options{Dir: *cacheDir})
		if err != nil {
			// The memory tier still works; warn and continue.
			fmt.Fprintln(stderr, "marionc: warning:", err)
		}
		cfg.Cache = ch
	}
	if *doTrace {
		cfg.Span = trace.New(trace.NewID(), "marionc")
	}
	if bundle != nil {
		rec := bundle.Options.Config(cfg)
		if set["workers"] {
			rec.Workers = cfg.Workers
		}
		if set["timeout"] {
			rec.Budget = cfg.Budget
		}
		if set["strict"] {
			rec.Strict = cfg.Strict
		}
		rec.Verify = rec.Verify || cfg.Verify
		cfg = rec
		fmt.Fprintf(stderr, "marionc: replaying %s: %s/%s after %d failure(s): %s\n",
			*replay, u.target, cfg.Strategy, bundle.Failures, bundle.Reason)
	}
	return compileAndReport(stdout, stderr, u, cfg)
}

// unit is one translation unit to compile and where its report goes.
type unit struct {
	target    string
	file, src string
	lang      string // "c", or "il" for textual IL (see driver.Lower)
	out       string // -o
	stats     bool   // -stats
}

// compileAndReport compiles u under cfg and reports the way marionc
// does — trace dump, degradation notes, assembly, -stats, verifier
// findings — returning the exit status. The normal and -replay paths
// both end here.
func compileAndReport(stdout, stderr io.Writer, u unit, cfg driver.Config) int {
	res, err := driver.Compile(u.target, u.lang, u.file, u.src, cfg)
	dumpTrace(stderr, cfg.Span, err)
	if err != nil {
		return fail(stderr, err)
	}
	for _, d := range res.Degradations {
		fmt.Fprintf(stderr, "marionc: note: %s\n", d.String())
	}
	if code := emit(stdout, stderr, u.out, res.Prog.Print()); code != 0 {
		return code
	}
	if u.stats {
		var names []string
		for n := range res.Stats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st := res.Stats[n]
			fmt.Fprintf(stderr,
				"%s: est %d cycles, %d spills (%d slots), %d alloc rounds, %d schedule passes\n",
				n, st.EstimatedCycles, st.Spills, st.SpillSlots, st.AllocRounds, st.SchedulePasses)
		}
		if cfg.Cache != nil {
			cs := cfg.Cache.Stats()
			fmt.Fprintf(stderr,
				"cache: %d hit(s) (%d mem, %d disk), %d miss(es), %d store(s), %d eviction(s), %d reject(s)\n",
				cs.Hits(), cs.MemHits, cs.DiskHits, cs.Misses, cs.Stores, cs.Evictions, cs.Rejects)
		}
	}
	if cfg.Verify && !res.Verify.Empty() {
		printFindings(stderr, res.Verify)
		return 1
	}
	return 0
}

// dumpTrace finishes a -trace root span and prints the span tree as
// indented JSON to stderr; a nil root (tracing off) prints nothing.
func dumpTrace(stderr io.Writer, root *trace.Span, cerr error) {
	if root == nil {
		return
	}
	outcome := "ok"
	if cerr != nil {
		outcome = "failed"
	}
	b, err := json.MarshalIndent(root.Finish(outcome, 0), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "marionc: trace:", err)
		return
	}
	fmt.Fprintf(stderr, "marionc: trace:\n%s\n", b)
}

// emit writes text to the -o file or stdout; exit status 0 or 1.
func emit(stdout, stderr io.Writer, out, text string) int {
	if out != "" {
		if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	fmt.Fprint(stdout, text)
	return 0
}

// fail prints a compile failure and returns the exit status. A
// *pipeline.Diagnostics error is expanded into one line per failing
// function (with its phase); anything else prints as-is.
func fail(stderr io.Writer, err error) int {
	var diags *pipeline.Diagnostics
	if errors.As(err, &diags) {
		all := diags.All()
		fmt.Fprintf(stderr, "marionc: %d function(s) failed:\n", len(all))
		for _, d := range all {
			fmt.Fprintf(stderr, "  %s: %s: %v\n", d.Func, d.Phase, d.Err)
			var pe *pipeline.PanicError
			if errors.As(d.Err, &pe) {
				for _, line := range strings.Split(pe.Stack, "\n") {
					fmt.Fprintf(stderr, "    %s\n", line)
				}
			}
		}
		return 1
	}
	fmt.Fprintln(stderr, "marionc:", err)
	return 1
}

// printFindings renders every verifier finding, one per line, grouped
// under a count header.
func printFindings(stderr io.Writer, rep *verify.Report) {
	fmt.Fprintf(stderr, "marionc: verify: %d finding(s):\n", len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Fprintf(stderr, "  %s\n", f)
	}
}
