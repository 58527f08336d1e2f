package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Spec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are declared. The program reads it at start-up
// and refuses to report a name the file does not declare, so the file
// and the code cannot drift apart silently (smoke_test.go checks the
// other direction).
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []SpecLoad   `json:"workloads"`
	EndToEnd   []SpecMetric `json:"end_to_end"`
	PerLayer   []SpecMetric `json:"per_layer"`
}

// SpecLoad is one declared workload.
type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one declared metric; Bound is absent on per-layer rows.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*Spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *Spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// Metric is one reported value, in the shape the contract's result line
// wants.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a single-workload run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// ledger collects one run's metrics against the declared set: every
// declared name starts at zero (a per-layer metric of a layer the
// workload never enters stays there), and setting an undeclared name is
// an error.
type ledger struct {
	units  map[string]string
	values map[string]float64
	err    error
}

func newLedger(decl []SpecMetric) *ledger {
	l := &ledger{units: map[string]string{}, values: map[string]float64{}}
	for _, m := range decl {
		l.units[m.Name] = m.Unit
		l.values[m.Name] = 0
	}
	return l
}

func (l *ledger) set(name string, v float64) {
	if _, ok := l.units[name]; !ok {
		if l.err == nil {
			l.err = fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		return
	}
	l.values[name] = v
}

func (l *ledger) metrics() map[string]Metric {
	out := make(map[string]Metric, len(l.values))
	for n, v := range l.values {
		out[n] = Metric{Value: v, Unit: l.units[n]}
	}
	return out
}

func sortedNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
