// Command bench is the repository's benchmark: four workloads — cold
// and warm, library and service — measured end to end, plus a traced
// run that attributes each workload's time, allocations and work counts
// to the package (layer) that spent them. BENCHMARK.json at the
// repository root declares every workload and metric; README.md in this
// directory explains them and how they interact.
//
// Usage (bench/run.sh builds the binaries and passes the flags on):
//
//	bash bench/run.sh                       every workload, untraced then traced
//	bash bench/run.sh -selfcheck            the above twice, compared against the bounds
//	bash bench/run.sh --workload cold_loops --seed 1 --seconds 20 --trace 0
//
// With -workload the program runs that one workload in this process and
// prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. Without it, every
// workload is run in a fresh child process, so heaps and caches never
// leak from one workload into the next.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print the result line (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "how long a run measures (default: run_seconds of BENCHMARK.json)")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	selfcheck := fs.Bool("selfcheck", false, "run everything twice and compare end-to-end metrics against their bounds")
	root := fs.String("root", ".", "repository checkout (holds BENCHMARK.json and examples/c)")
	mariond := fs.String("mariond", "", "non-race mariond binary (built by bench/run.sh)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments:", fs.Args())
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload == "" {
		return runAll(spec, args, *selfcheck, stdout, stderr)
	}
	if !spec.workload(*workload) {
		fmt.Fprintf(stderr, "bench: workload %q is not declared in BENCHMARK.json\n", *workload)
		return 2
	}

	h := &harness{
		spec: spec, root: *root, mariond: *mariond,
		outDir:  filepath.Join(*root, "bench", "out"),
		name:    *workload,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
	}
	res, err := h.execute(*traceOn != 0)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, miss := range h.misses {
		fmt.Fprintln(stderr, "bench: MISS:", miss)
	}
	printMetrics(stderr, *workload, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the harness's workload, traced or not, and returns the
// result line's content.
func (h *harness) execute(traced bool) (*Result, error) {
	decl := h.spec.EndToEnd
	if traced {
		decl = h.spec.PerLayer
	}
	h.led = newLedger(decl)
	if err := h.prepare(); err != nil {
		return nil, err
	}
	var err error
	switch {
	case traced:
		err = h.runTraced()
	case h.service():
		err = h.runServe()
	default:
		err = h.runCold()
	}
	if err == nil {
		err = h.led.err
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: h.led.metrics()}
	if !traced {
		for name, m := range res.Metrics {
			h.gate(m.Value != 0, "end-to-end metric %s reads 0: it was not measured", name)
		}
	}
	res.Correct, res.Attempted, res.Failed = h.failed == 0, h.attempted, h.failed
	return res, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, workload string, m map[string]Metric) {
	for _, name := range sortedNames(m) {
		fmt.Fprintf(w, "%-14s %-40s %16.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

// runChild runs one workload in a fresh process and parses its result
// line. The child's diagnostics pass through to stderr.
func runChild(args []string, workload string, traced int, stderr io.Writer) (*Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	childArgs := append(append([]string{}, args...), "-workload", workload, "-trace", fmt.Sprint(traced))
	cmd := exec.Command(self, childArgs...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, traced, runErr)
		}
		return nil, fmt.Errorf("%s (trace %d): no result line: %w", workload, traced, err)
	}
	return &res, nil
}

// runAll is the one command of the benchmark: every workload untraced
// (end-to-end metrics) and traced (per-layer metrics), each in its own
// process. With selfcheck the untraced runs are made twice and every
// workload × end-to-end metric pair must agree within the metric's
// bound; the exact counts must be identical.
func runAll(spec *Spec, args []string, selfcheck bool, stdout, stderr io.Writer) int {
	// -selfcheck must not reach the children.
	var pass []string
	for _, a := range args {
		if a != "-selfcheck" && a != "--selfcheck" {
			pass = append(pass, a)
		}
	}
	rounds := 1
	if selfcheck {
		rounds = 2
	}
	ok := true
	e2e := make([]map[string]*Result, rounds)
	for r := 0; r < rounds; r++ {
		e2e[r] = map[string]*Result{}
		for _, w := range spec.Workloads {
			for traced := 0; traced <= 1; traced++ {
				res, err := runChild(pass, w.Name, traced, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				if traced == 0 {
					e2e[r][w.Name] = res
				}
				fmt.Fprintf(stdout, "\n== %s (trace %d): correct=%v attempted=%d failed=%d\n",
					w.Name, traced, res.Correct, res.Attempted, res.Failed)
				printMetrics(stdout, w.Name, res.Metrics)
				ok = ok && res.Correct
			}
		}
	}
	if selfcheck {
		fmt.Fprintf(stdout, "\n== selfcheck: two runs of the same build\n%-14s %-18s %14s %14s %9s %7s\n",
			"workload", "metric", "first", "second", "diff", "bound")
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				a, b := e2e[0][w.Name].Metrics[m.Name].Value, e2e[1][w.Name].Metrics[m.Name].Value
				diff := ratio(b-a, a)
				if diff < 0 {
					diff = -diff
				}
				verdict := ""
				if diff > *m.Bound {
					verdict = "  EXCEEDS BOUND"
					ok = false
				}
				fmt.Fprintf(stdout, "%-14s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
					w.Name, m.Name, a, b, diff*100, *m.Bound*100, verdict)
			}
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "\nbench: FAILED")
		return 1
	}
	return 0
}
