// crosscompile demonstrates retargetability — the paper's core claim:
// one source program, four machine descriptions, four working code
// generators. It compiles the same kernel for TOYP, the R2000, the 88000
// and the i860, prints each schedule's shape and verifies that every
// target computes the identical result.
package main

import (
	"context"
	"fmt"
	"log"

	"marion"
	"marion/internal/sim"
)

const source = `
double x[128], y[128];
void setup() {
    int i;
    for (i = 0; i < 128; i++) { x[i] = 0.5 * i; y[i] = 0.25 * i + 1.0; }
}
double saxpy(double a, int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
        s = s + y[i];
    }
    return s;
}
`

func main() {
	var reference float64
	first := true
	for _, target := range []string{"toyp", "r2000", "m88000", "i860"} {
		gen, err := marion.New(target, marion.Postpass)
		if err != nil {
			log.Fatal(err)
		}
		res, err := gen.CompileCtx(context.Background(), "saxpy.c", source)
		if err != nil {
			log.Fatalf("%s: %v", target, err)
		}
		sess := sim.New(res.Program, sim.Options{})
		if _, err := sess.Run("setup"); err != nil {
			log.Fatal(err)
		}
		st, err := sess.Run("saxpy", sim.Float64(3.0), sim.Int(128))
		if err != nil {
			log.Fatal(err)
		}

		instrs := 0
		words := 0
		f := res.Program.Lookup("saxpy")
		for _, b := range f.Blocks {
			lastC := int32(-2)
			for _, in := range b.Insts {
				instrs++
				if in.Cycle < 0 || in.Cycle != lastC {
					words++
				}
				lastC = in.Cycle
			}
		}
		fmt.Printf("%-8s  result %12.4f  cycles %6d  instrs %3d in %3d words  (CPI %.2f)\n",
			gen.Machine.Name, st.RetF, st.Cycles, instrs, words,
			float64(st.Cycles)/float64(st.Instrs))

		if first {
			reference = st.RetF
			first = false
		} else if st.RetF != reference {
			log.Fatalf("%s disagrees: %v != %v", target, st.RetF, reference)
		}
	}
	fmt.Println("\nAll four targets computed the identical result.")
	fmt.Println("The i860's word count is below its instruction count: sub-operations")
	fmt.Println("packed into dual-operation long instruction words.")
}
