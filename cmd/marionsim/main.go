// Command marionsim compiles a C-subset program and executes one of its
// functions on Marion's description-driven cycle simulator, reporting
// the result and the timing statistics.
//
// Usage:
//
//	marionsim -target r2000 -call 'sum(100)' prog.c
//	marionsim -target i860 -strategy ips -cache -call 'kern(10)' loop7.c
//
// Arguments are integers or decimal floats; an initialization function
// can be run first with -init.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"marion"
	"marion/internal/sim"
	"marion/internal/strategy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive
// the full command. Exit status: 0 success, 1 compile or run error, 2
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marionsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "r2000", "target machine")
	strat := fs.String("strategy", "postpass", "code generation strategy")
	call := fs.String("call", "", "function call, e.g. 'kern(4)'")
	initFn := fs.String("init", "", "initialization function to run first")
	cache := fs.Bool("cache", false, "enable the data cache model")
	trace := fs.Bool("trace", false, "trace issued instructions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || *call == "" {
		fmt.Fprintln(stderr, "usage: marionsim -call 'fn(args)' [-init init] [-cache] file.c")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	kind, err := strategy.ParseKind(*strat)
	if err != nil {
		return fail(stderr, err)
	}
	gen, err := marion.New(*target, kind)
	if err != nil {
		return fail(stderr, err)
	}
	res, err := gen.CompileCtx(context.Background(), fs.Arg(0), string(src))
	if err != nil {
		return fail(stderr, err)
	}

	opts := sim.Options{}
	if *cache {
		opts.Cache = sim.DefaultCache()
	}
	if *trace {
		opts.Trace = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	sess := sim.New(res.Program, opts)
	if *initFn != "" {
		if _, err := sess.Run(*initFn); err != nil {
			return fail(stderr, err)
		}
	}
	name, callArgs, err := parseCall(*call)
	if err != nil {
		return fail(stderr, err)
	}
	st, err := sess.Run(name, callArgs...)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s -> int %d, double %g\n", *call, st.RetI, st.RetF)
	fmt.Fprintf(stdout, "cycles %d, instructions %d, words %d", st.Cycles, st.Instrs, st.Words)
	if st.Loads > 0 {
		fmt.Fprintf(stdout, ", loads %d (%d misses)", st.Loads, st.LoadMisses)
	}
	fmt.Fprintln(stdout)
	return 0
}

func parseCall(s string) (string, []sim.Value, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("bad call syntax %q (want fn(a,b))", s)
	}
	name := s[:open]
	inner := strings.TrimSuffix(s[open+1:], ")")
	var args []sim.Value
	if strings.TrimSpace(inner) != "" {
		for _, a := range strings.Split(inner, ",") {
			a = strings.TrimSpace(a)
			if strings.ContainsAny(a, ".eE") {
				f, err := strconv.ParseFloat(a, 64)
				if err != nil {
					return "", nil, err
				}
				args = append(args, sim.Float64(f))
			} else {
				i, err := strconv.ParseInt(a, 10, 64)
				if err != nil {
					return "", nil, err
				}
				args = append(args, sim.Int(i))
			}
		}
	}
	return name, args, nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "marionsim:", err)
	return 1
}
