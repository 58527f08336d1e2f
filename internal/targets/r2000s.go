package targets

import "strings"

// r2000sMaril derives r2000s, an architectural variation of the R2000
// with a starved register file (8 allocable integer, 4 double
// registers): the kind of variation the paper's §1 experiments sweep,
// where the scheduling/allocation strategies genuinely diverge.
func r2000sMaril() string {
	small := strings.Replace(r2000Maril, "%machine R2000;", "%machine R2000S;", 1)
	return strings.Replace(small,
		"    %allocable r[2:25], f[1:15];\n    %calleesave r[16:23], f[10:15];",
		"    %allocable r[2:9], f[1:4];\n    %calleesave r[8:9], f[4:4];", 1)
}
