package marion

import (
	"context"
	"strings"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
)

// TestCompileILMatchesModule holds CompileILCtx to its definition: every
// IL serve unit it compiles prints the assembly CompileModuleCtx prints
// for the same text lowered through driver.Lower, and malformed IL text
// comes back as an error naming the unit and the line, not a panic.
func TestCompileILMatchesModule(t *testing.T) {
	ctx := context.Background()
	for _, target := range []string{"r2000", "i860"} {
		g, err := New(target, RASE)
		if err != nil {
			t.Fatal(err)
		}
		units := 0
		for _, u := range gentest.Serve() {
			if u.Lang != "il" {
				continue
			}
			units++
			got, err := g.CompileILCtx(ctx, u.Name, u.Text)
			if err != nil {
				t.Fatalf("%s/%s: CompileILCtx: %v", target, u.Name, err)
			}
			mod, err := driver.Lower("il", u.Name, u.Text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.CompileModuleCtx(ctx, mod)
			if err != nil {
				t.Fatalf("%s/%s: CompileModuleCtx: %v", target, u.Name, err)
			}
			if got.Program.Print() != want.Program.Print() {
				t.Errorf("%s/%s: CompileILCtx and CompileModuleCtx print different assembly", target, u.Name)
			}
		}
		if units == 0 {
			t.Fatal("the serve corpus has no IL unit")
		}

		_, err = g.CompileILCtx(ctx, "bad.il", "module bad.il\n\nfunc f ret int\nnot an instruction\n")
		if err == nil || !strings.HasPrefix(err.Error(), "bad.il: line 4:") {
			t.Errorf("%s: malformed IL: err = %v, want one located at bad.il: line 4", target, err)
		}
	}
}

// TestCompileKeepsNoIL: what CompileCtx returns is code, not IL. A unit
// is compiled and its result kept; then another unit is compiled, on
// the front end's pool, which the first compile's IL went back to. The
// first result prints as it did, and no block of its IL functions holds
// a statement.
func TestCompileKeepsNoIL(t *testing.T) {
	g, err := New("r2000", Postpass)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	big := gentest.Fixture(gentest.BigBlock)
	var a *Result
	for _, u := range gentest.Serve() {
		if u.Lang == "c" {
			if a, err = g.CompileCtx(ctx, u.Name, u.Text); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	want := a.Program.Print()
	if _, err := g.CompileCtx(ctx, big.Name, big.Text); err != nil {
		t.Fatal(err)
	}
	if a.Program.Print() != want {
		t.Error("compiling a second unit changed the first unit's program")
	}
	for _, f := range a.Program.Funcs {
		for _, b := range f.IR.Blocks {
			if len(b.Stmts) > 0 {
				t.Fatalf("block %s of %s holds %d IL statements", b.Name(), f.Name, len(b.Stmts))
			}
		}
	}
}

// TestUnsignedSubwordRefused: until the IL has unsigned 8- and 16-bit
// types, CompileCtx refuses unsigned char and unsigned short, the
// specifiers in either order, on every target with an error that names
// the unit, the line and the type,
// rather than compiling them as signed (where x = 200 stored into an
// unsigned char reads back as -56).
func TestUnsignedSubwordRefused(t *testing.T) {
	for _, ty := range []struct{ name, spelling, bits string }{
		{"char", "unsigned char", "8"}, {"char", "char unsigned", "8"},
		{"short", "unsigned short", "16"}, {"short", "short unsigned", "16"},
	} {
		src := "int f(int x) {\n  " + ty.spelling + " c[2];\n  c[0] = x;\n  return c[0];\n}\n"
		want := "u.c:2: unsigned " + ty.name + " is not supported: the IL has no unsigned " + ty.bits + "-bit type"
		for _, target := range Targets() {
			g, err := New(target, Postpass)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.CompileCtx(context.Background(), "u.c", src); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s: err = %v, want %q", target, ty.spelling, err, want)
			}
		}
	}
}
