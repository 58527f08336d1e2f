package maril_test

import (
	"strings"
	"testing"

	"marion/internal/maril"
	"marion/internal/targets"
)

// parseErrorCases are descriptions Parse must refuse, each with a
// substring of its error.
var parseErrorCases = []struct {
	name, src, wantSub string
}{
	{"unknown section", "bogus { }", "unknown section"},
	{"unknown resource", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %instr add r, r, r {$1 = $2 + $3;} [ZZ] (1,1,0) }`, "unknown resource"},
	{"bad operand index", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %instr add r, r {$1 = $2 + $3;} [A] (1,1,0) }`, "out of range"},
	{"unknown regset", `
declare { %reg r[0:1] (int); }
cwvm { %general (int) q; }`, "unknown register set"},
	{"redeclared def", `
declare { %def a [0:1]; %def a [0:2]; }`, "redeclared"},
	{"no instructions", `
declare { %reg r[0:1] (int); }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }`, "no instructions"},
	{"func escape", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %instr mov r, r {$1 = $2;} [A] (1,1,0)
        %func *movd r, r {$1 = $2;} }`, "t:6: %func escapes are not supported"},
	{"escape mnemonic", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %move *movd r, r {$1 = $2;} [A] (1,1,0) }`, "t:5: *name escapes are not supported"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := maril.Parse("t", c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

// FuzzParse feeds arbitrary text to maril.Parse: it may refuse the text,
// but must not panic. The seeds are the shipped descriptions, whole and
// cut short, and parseErrorCases; under plain go test they run as
// subtests.
func FuzzParse(f *testing.F) {
	for _, name := range targets.Names() {
		src, err := targets.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
		f.Add(src[:len(src)/2])
	}
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		maril.Parse("fuzz.maril", src)
	})
}
