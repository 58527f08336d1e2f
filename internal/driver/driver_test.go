package driver

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/strategy"
)

const tinyProg = `
int g;
double acc;

int addmul(int a, int b) {
    return a * b + g;
}

double dscale(double x) {
    acc = acc + 2.0 * x;
    return acc;
}

int sumto(int n) {
    int s = 0;
    int i;
    for (i = 1; i <= n; i++) s += i;
    return s;
}

int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
`

func compile(t *testing.T, strat strategy.Kind) *Compiled {
	t.Helper()
	c, err := Compile("toyp", "tiny.c", tinyProg, Config{Strategy: strat})
	if err != nil {
		t.Fatalf("compile (%v): %v", strat, err)
	}
	return c
}

func TestCompileAllStrategies(t *testing.T) {
	for _, k := range []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE} {
		t.Run(k.String(), func(t *testing.T) {
			c := compile(t, k)
			if len(c.Prog.Funcs) != 4 {
				t.Fatalf("functions = %d", len(c.Prog.Funcs))
			}
			checkAllPhysical(t, c)
		})
	}
}

// checkAllPhysical asserts allocation left no pseudo operands behind.
func checkAllPhysical(t *testing.T, c *Compiled) {
	t.Helper()
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				for _, a := range in.Args {
					if a.Kind == asm.OpPseudo || a.Kind == asm.OpPseudoHalf {
						t.Errorf("%s: unallocated operand in %s", f.Name, in)
					}
				}
			}
		}
	}
}

func TestGlobalLayout(t *testing.T) {
	c := compile(t, strategy.Postpass)
	if len(c.Prog.Globals) < 2 {
		t.Fatalf("globals = %d", len(c.Prog.Globals))
	}
	seen := map[int]bool{}
	for _, g := range c.Prog.Globals {
		if g.Offset < DataBase {
			t.Errorf("%s at %d below data base", g.Name, g.Offset)
		}
		if g.Type.Size() == 8 && g.Offset%8 != 0 {
			t.Errorf("%s misaligned at %d", g.Name, g.Offset)
		}
		if seen[g.Offset] {
			t.Errorf("overlapping global at %d", g.Offset)
		}
		seen[g.Offset] = true
	}
}

func TestPrologueEpilogue(t *testing.T) {
	c := compile(t, strategy.Postpass)
	fib := c.Prog.Lookup("fib")
	if fib == nil {
		t.Fatal("fib missing")
	}
	if !fib.UsesCalls {
		t.Error("fib should use calls")
	}
	if fib.FrameSize <= 0 {
		t.Errorf("fib frame = %d", fib.FrameSize)
	}
	entry := fib.Blocks[0].Insts
	if entry[0].Tmpl.Mnemonic != "addi" || entry[0].Args[2].Imm != -int64(fib.FrameSize) {
		t.Errorf("prologue first inst = %v", entry[0])
	}
	// Some block must end with epilogue + ret (+ delay nop).
	foundRet := false
	for _, b := range fib.Blocks {
		for i, in := range b.Insts {
			if in.Tmpl.IsRet {
				foundRet = true
				// There must be an sp-restoring addi before the ret.
				ok := false
				for j := 0; j < i; j++ {
					if b.Insts[j].Tmpl.Mnemonic == "addi" && b.Insts[j].Args[2].Imm == int64(fib.FrameSize) {
						ok = true
					}
				}
				if !ok {
					t.Error("no sp restore before ret")
				}
			}
		}
	}
	if !foundRet {
		t.Error("no return instruction")
	}
}

func TestLeafFunctionStillFramed(t *testing.T) {
	c := compile(t, strategy.Postpass)
	f := c.Prog.Lookup("addmul")
	if f.UsesCalls {
		t.Error("addmul is a leaf")
	}
	// Leaves still save the old fp (frame always materialized).
	if f.FrameSize < 8 {
		t.Errorf("frame = %d", f.FrameSize)
	}
}

func TestScheduledCyclesAssigned(t *testing.T) {
	c := compile(t, strategy.Postpass)
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			last := int32(-1)
			for _, in := range b.Insts {
				if in.Cycle >= 0 {
					if in.Cycle < last {
						t.Errorf("%s: cycles not monotone in block %s", f.Name, b.Label())
					}
					last = in.Cycle
				}
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	c := compile(t, strategy.IPS)
	st := c.Stats["sumto"]
	if st == nil || st.SchedulePasses == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles = %d", st.EstimatedCycles)
	}
}
