package ir

import (
	"testing"
	"unsafe"
)

// TestLayout pins the size of the IL node every request builds by the
// thousand, hit or miss: growing it is a reviewed change, not a side
// effect of adding a field.
func TestLayout(t *testing.T) {
	if size, max := unsafe.Sizeof(Node{}), uintptr(72); size > max {
		t.Errorf("ir.Node is %d bytes, more than %d", size, max)
	}
}
