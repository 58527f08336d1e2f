package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs all four workloads, untraced and traced, at one tiny
// pass each, against a mariond built here without the race detector
// (the program under test is never race-instrumented, even when this
// test is). It asserts that every run is correct and that the metric
// and workload names the program reports are exactly the ones
// BENCHMARK.json declares, so the file and the code cannot drift apart.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	mariond := filepath.Join(t.TempDir(), "mariond")
	if out, err := exec.Command("go", "build", "-o", mariond, "marion/cmd/mariond").CombinedOutput(); err != nil {
		t.Fatalf("build mariond: %v\n%s", err, out)
	}

	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := sorted(workloads), sorted(declared); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("program implements workloads %v, BENCHMARK.json declares %v", got, want)
	}

	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			h := &harness{
				spec: spec, root: root, mariond: mariond, outDir: t.TempDir(),
				name: name, seed: 1, seconds: time.Second, tiny: true,
			}
			res, err := h.execute(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, strings.Join(h.misses, "\n"))
			}
			decl := spec.EndToEnd
			if traced {
				decl = spec.PerLayer
			}
			var want []string
			for _, m := range decl {
				want = append(want, m.Name)
			}
			if got := sortedNames(res.Metrics); strings.Join(got, " ") != strings.Join(sorted(want), " ") {
				t.Errorf("%s traced=%v: reported metrics %v, declared %v", name, traced, got, sorted(want))
			}
			if traced {
				if _, err := os.Stat(filepath.Join(h.outDir, name+".trace.json")); err != nil {
					t.Errorf("%s: traced run left no trace file: %v", name, err)
				}
				// A layer on the workload's path must have been seen at work.
				for _, layer := range onPath[name] {
					if res.Metrics[layer].Value == 0 {
						t.Errorf("%s: %s reads 0 although the layer is on this workload's path", name, layer)
					}
				}
			}
		}
	}
}

// onPath names, per workload, a few per-layer metrics that cannot read
// zero if the traced run really entered the layers it claims to.
var onPath = map[string][]string{
	"cold_loops":    {"cc.ns_per_fn", "strategy.ns_per_fn", "driver.reconcile_ratio", "sched.ns_per_inst", "pipeline.workers_speedup"},
	"cold_bigblock": {"cc.ns_per_fn", "strategy.ns_per_fn", "driver.reconcile_ratio", "regalloc.ns_per_fn", "cdag.edges_per_inst"},
	"serve_cold":    {"server.elapsed_ms_p50", "cache.encode_ns_per_fn", "cache.stores", "strategy.ns_per_fn", "server.handler_ns_per_req"},
	"serve_warm":    {"server.elapsed_ms_p50", "cache.decode_ns_per_fn", "cache.hit_ratio", "ir.fingerprint_ns_per_fn", "trace.overhead_ratio"},
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
