package cc

import (
	"testing"
	"unsafe"
)

// TestLayout pins the size of the AST nodes the C front end carves for
// every expression and statement of a unit: growing one is a reviewed
// change, not a side effect of adding a field.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		what      string
		size, max uintptr
	}{
		{"Expr", unsafe.Sizeof(Expr{}), 96},
		{"Stmt", unsafe.Sizeof(Stmt{}), 96},
	} {
		if c.size > c.max {
			t.Errorf("cc.%s is %d bytes, more than %d", c.what, c.size, c.max)
		}
	}
}
