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
