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
	"os"
	"strconv"
	"strings"

	"marion"
	"marion/internal/sim"
	"marion/internal/strategy"
)

func main() {
	target := flag.String("target", "r2000", "target machine")
	strat := flag.String("strategy", "postpass", "code generation strategy")
	call := flag.String("call", "", "function call, e.g. 'kern(4)'")
	initFn := flag.String("init", "", "initialization function to run first")
	cache := flag.Bool("cache", false, "enable the data cache model")
	trace := flag.Bool("trace", false, "trace issued instructions")
	flag.Parse()

	if flag.NArg() != 1 || *call == "" {
		fmt.Fprintln(os.Stderr, "usage: marionsim -call 'fn(args)' [-init init] [-cache] file.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	kind, err := strategy.ParseKind(*strat)
	if err != nil {
		fatal(err)
	}
	gen, err := marion.New(*target, kind)
	if err != nil {
		fatal(err)
	}
	res, err := gen.CompileCtx(context.Background(), flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}

	opts := sim.Options{}
	if *cache {
		opts.Cache = sim.DefaultCache()
	}
	if *trace {
		opts.Trace = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	sess := sim.New(res.Program, opts)
	if *initFn != "" {
		if _, err := sess.Run(*initFn); err != nil {
			fatal(err)
		}
	}
	name, args, err := parseCall(*call)
	if err != nil {
		fatal(err)
	}
	st, err := sess.Run(name, args...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s -> int %d, double %g\n", *call, st.RetI, st.RetF)
	fmt.Printf("cycles %d, instructions %d, words %d", st.Cycles, st.Instrs, st.Words)
	if st.Loads > 0 {
		fmt.Printf(", loads %d (%d misses)", st.Loads, st.LoadMisses)
	}
	fmt.Println()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "marionsim:", err)
	os.Exit(1)
}
