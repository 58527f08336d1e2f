package asm

import (
	"testing"
	"unsafe"
)

// TestLayout pins the size of the types a compiled function is made of,
// the ones a cache hit rebuilds by the thousand: growing one is a
// reviewed change, not a side effect of adding a field.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		what      string
		size, max uintptr
	}{
		{"Operand", unsafe.Sizeof(Operand{}), 32},
		{"Inst", unsafe.Sizeof(Inst{}), 48},
		{"PseudoInfo", unsafe.Sizeof(PseudoInfo{}), 32},
	} {
		if c.size > c.max {
			t.Errorf("asm.%s is %d bytes, more than %d", c.what, c.size, c.max)
		}
	}
}
