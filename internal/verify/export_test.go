package verify

import (
	"marion/internal/asm"
	"marion/internal/mach"
)

// OracleDefs and OracleUses expose the verifier's own reading of an
// instruction's physical register effects (registers.go) to the
// external test package, which compares it with the asm walker the
// transformation side uses. Non-test verify code never sees the walker.
func OracleDefs(in *asm.Inst) (out []mach.PhysID) {
	(&verifier{}).instDefs(in, func(p mach.PhysID) { out = append(out, p) })
	return out
}

func OracleUses(in *asm.Inst) (out []mach.PhysID) {
	(&verifier{}).instUses(in, func(p mach.PhysID) { out = append(out, p) })
	return out
}

// The finding kinds, for the external test package.
const (
	KindSchedule = kindSchedule
	KindLatency  = kindLatency
	KindResource = kindResource
	KindTemporal = kindTemporal
	KindControl  = kindControl
	KindRegister = kindRegister
)

// Kinds lists every finding kind.
func Kinds() []Kind {
	var out []Kind
	for k := kindSchedule; k <= kindRegister; k++ {
		out = append(out, k)
	}
	return out
}
