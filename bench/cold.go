package main

import (
	"os"
	"time"

	"marion/bench/corpus"
)

// coldLoop runs the library workload's closed loop on this goroutine's
// single client: each op is one CompileCtx plus the assembly print,
// checked against the reference digest after its timer has stopped.
func (h *harness) coldLoop(sources []string, maxPasses int, until time.Duration, passEnd func()) []sample {
	n := len(h.order)
	return closedLoop(1, n, maxPasses, until, func(i int) sample {
		o := h.order[i%n]
		start := time.Now()
		res, asmText, err := h.compileLib(o, sources[i%n], false)
		lat := time.Since(start)
		ok := err == nil && len(res.Degradations) == 0 && h.ref[i%n].matches(o, asmText)
		h.check(ok, "%s %v: error %v, or degraded, or assembly differs from the reference compile of the same input",
			o.unit.Name, corpus.Configs[o.cfg], err)
		return sample{lat: lat, funcs: h.ref[i%n].funcs, ok: ok}
	}, passEnd)
}

// runCold is a library workload's untraced run: the end-to-end metrics.
func (h *harness) runCold() error {
	setup, err := parseTargets(h.rounds(240))
	if err != nil {
		return err
	}
	h.led.set("setup_s", setup)

	h.gateAndReference(true)
	sources := make([]string, len(h.order))
	for i, o := range h.order {
		sources[i] = h.source(o, 0)
	}

	h.coldLoop(sources, 1, 0, nil) // warm-up: page in code paths, grow the heap
	rss := &rssMeter{pid: os.Getpid()}
	rss.restart()
	bytes0, objs0 := heapAllocs()
	passes, until := h.window(h.seconds)
	samples := h.coldLoop(sources, passes, until, rss.lap)
	bytes1, objs1 := heapAllocs()
	return h.reportTimed(summarize(samples, len(h.order), 1), bytes1-bytes0, objs1-objs0, rss)
}
