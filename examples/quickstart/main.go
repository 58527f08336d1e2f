// Quickstart: build a code generator from a shipped machine description,
// compile a small C function, print the scheduled assembly and execute it
// on the cycle simulator.
package main

import (
	"context"
	"fmt"
	"log"

	"marion"
	"marion/internal/sim"
)

const source = `
double dot(double *a, double *b, int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) s = s + a[i] * b[i];
    return s;
}

double va[64], vb[64];

void setup(int n) {
    int i;
    for (i = 0; i < n; i++) { va[i] = i + 1; vb[i] = 2 * i + 1; }
}

double run(int n) { return dot(va, vb, n); }
`

func main() {
	// 1. Construct a code generator: R2000 description + Postpass strategy.
	gen, err := marion.New("r2000", marion.Postpass)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(gen.Describe())

	// 2. Compile.
	res, err := gen.CompileCtx(context.Background(), "dot.c", source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- generated code ---")
	fmt.Print(res.Program.Print())

	// 3. Execute on the description-driven simulator.
	sess := sim.New(res.Program, sim.Options{})
	if _, err := sess.Run("setup", sim.Int(64)); err != nil {
		log.Fatal(err)
	}
	st, err := sess.Run("run", sim.Int(64))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndot(va, vb, 64) = %g in %d cycles (%d instructions)\n",
		st.RetF, st.Cycles, st.Instrs)

	// 4. The same program, unscheduled, for comparison.
	naive, err := marion.New("r2000", marion.Naive)
	if err != nil {
		log.Fatal(err)
	}
	nres, err := naive.CompileCtx(context.Background(), "dot.c", source)
	if err != nil {
		log.Fatal(err)
	}
	nsess := sim.New(nres.Program, sim.Options{})
	if _, err := nsess.Run("setup", sim.Int(64)); err != nil {
		log.Fatal(err)
	}
	nst, err := nsess.Run("run", sim.Int(64))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without scheduling: %d cycles (%.2fx slower)\n",
		nst.Cycles, float64(nst.Cycles)/float64(st.Cycles))
}
