package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"marion"
	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/sim"
)

func TestNewAndCompile(t *testing.T) {
	gen, err := marion.New("r2000", marion.Postpass)
	if err != nil {
		t.Fatal(err)
	}
	if d := gen.Describe(); !strings.Contains(d, "R2000") || !strings.Contains(d, "postpass") {
		t.Errorf("describe = %q", d)
	}
	res, err := gen.CompileCtx(context.Background(), "t.c", `int sq(int x) { return x * x; }`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.New(res.Program, sim.Options{}).Run("sq", sim.Int(12))
	if err != nil {
		t.Fatal(err)
	}
	if st.RetI != 144 {
		t.Errorf("sq(12) = %d", st.RetI)
	}
}

func TestNewFromDescription(t *testing.T) {
	// The retargeting path: a custom Maril description straight to a
	// working code generator.
	desc := `
declare {
    %reg r[0:7] (int, ptr);
    %resource EX, MEM;
    %def imm [-32768:32767];
    %def zero [0:0];
    %label lab [-1024:1023] +relative;
    %label flab [-1024:1023];
    %memory m[0:2147483647];
}
cwvm {
    %general (int, ptr) r;
    %allocable r[2:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %arg (int) r[2] 1;
    %result r[2] (int);
}
instr {
    %instr ld r, r, #imm {$1 = m[$2 + $3];} [EX; MEM] (1,2,0)
    %instr st r, r, #imm {m[$2 + $3] = $1;} [EX; MEM] (1,1,0)
    %instr addi r, r, #imm {$1 = $2 + $3;} [EX] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [EX] (1,1,0)
    %instr mul r, r, r {$1 = $2 * $3;} [EX] (1,4,0)
    %instr li r, #imm {$1 = $2;} [EX] (1,1,0)
    %instr cmp r, r, r {$1 = $2 :: $3;} [EX] (1,1,0)
    %instr cmpi r, r, #imm {$1 = $2 :: $3;} [EX] (1,1,0)
    %instr bge0 r, #lab {if ($1 >= 0) goto $2;} [EX] (1,1,1)
    %instr blt0 r, #lab {if ($1 < 0) goto $2;} [EX] (1,1,1)
    %instr beq0 r, #lab {if ($1 == 0) goto $2;} [EX] (1,1,1)
    %instr bne0 r, #lab {if ($1 != 0) goto $2;} [EX] (1,1,1)
    %instr ble0 r, #lab {if ($1 <= 0) goto $2;} [EX] (1,1,1)
    %instr bgt0 r, #lab {if ($1 > 0) goto $2;} [EX] (1,1,1)
    %instr j #lab {goto $1;} [EX] (1,1,1)
    %instr jal #flab {call $1;} [EX] (1,1,1)
    %instr ret {ret;} [EX] (1,1,1)
    %instr nop {;} [EX] (1,1,0)
    %move mov r, r {$1 = $2;} [EX] (1,1,0)
    %glue r, r, #lab { if ($1 < $2) goto $3 ==> if (($1 :: $2) < 0) goto $3; } if !fits($2, zero);
    %glue r, r, #lab { if ($1 >= $2) goto $3 ==> if (($1 :: $2) >= 0) goto $3; } if !fits($2, zero);
}
`
	gen, err := marion.NewFromDescription("custom.maril", desc, marion.Postpass)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.CompileCtx(context.Background(), "t.c", `
int tri(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s = s + i;
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.New(res.Program, sim.Options{}).Run("tri", sim.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if st.RetI != 45 {
		t.Errorf("tri(10) = %d, want 45", st.RetI)
	}
}

func TestSessionPersistsMemory(t *testing.T) {
	gen, err := marion.New("toyp", marion.IPS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.CompileCtx(context.Background(), "t.c", `
int counter;
void bump() { counter = counter + 1; }
int get() { return counter; }`)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.New(res.Program, sim.Options{})
	for i := 0; i < 5; i++ {
		if _, err := sess.Run("bump"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sess.Run("get")
	if err != nil {
		t.Fatal(err)
	}
	if st.RetI != 5 {
		t.Errorf("counter = %d, want 5", st.RetI)
	}
}

func TestTargetsList(t *testing.T) {
	names := marion.Targets()
	want := map[string]bool{"toyp": true, "r2000": true, "m88000": true, "i860": true, "rs6000": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing targets: %v (have %v)", want, names)
	}
}

const twoFuncs = `
int dbl(int x) { return x + x; }
int mac(int a, int b, int c) { return a * b + c; }
`

// The generator embeds driver.Config, so it can express every back
// end option — including the two its hand-copied field list had
// drifted away from. CacheOnly with an empty cache must turn every
// function into an ErrCacheOnlyMiss diagnostic instead of compiling.
func TestGeneratorCacheOnly(t *testing.T) {
	gen, err := marion.New("r2000", marion.Postpass)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen.Cache, gen.CacheOnly = ch, true

	_, err = gen.CompileCtx(context.Background(), "t.c", twoFuncs)
	var diags *driver.Diagnostics
	if !errors.As(err, &diags) {
		t.Fatalf("err = %v, want *driver.Diagnostics", err)
	}
	all := diags.All()
	if len(all) != 2 {
		t.Fatalf("got %d diagnostics, want one per function (2): %v", len(all), err)
	}
	for _, d := range all {
		if !errors.Is(d.Err, driver.ErrCacheOnlyMiss) {
			t.Errorf("%s: err = %v, want ErrCacheOnlyMiss", d.Func, d.Err)
		}
	}
}
