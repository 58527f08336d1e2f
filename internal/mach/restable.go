package mach

import "slices"

// ResTable is the reservation table (paper §4.3): the union of the
// resources in-flight instructions hold at the current cycle and at each
// of the few cycles after it that a resource vector can reach. It answers
// "is this pipeline stage free at cycle c?" for the scheduler, which
// plans with it, and the simulator, which times with it. Only a window of
// cycles is ever looked at, so the table is a ring over that window; a
// slot is cleared as the current cycle moves past it. The zero value
// needs a Reset before use.
type ResTable struct {
	ring []ResSet // ring[(head+c) mod len(ring)] is held c cycles from now
	head int
}

// Reset empties the table, makes its first cycle the current one and
// sizes it for resource vectors of up to window cycles.
func (t *ResTable) Reset(window int) {
	window = max(window, 1)
	t.ring = slices.Grow(t.ring[:0], window)[:window]
	clear(t.ring)
	t.head = 0
}

// Window is the number of cycles the table spans.
func (t *ResTable) Window() int { return len(t.ring) }

// CopyFrom makes t a copy of o, for trying reservations out.
func (t *ResTable) CopyFrom(o *ResTable) {
	t.ring = append(t.ring[:0], o.ring...)
	t.head = o.head
}

// Fits reports whether an instruction with resource vector vec, no
// longer than the window, can issue in the current cycle: every stage it
// needs is free in the cycle it needs it. With issueOnly only the issue
// cycle is checked, as the paper's implementation does.
func (t *ResTable) Fits(vec []ResSet, issueOnly bool) bool {
	if issueOnly && len(vec) > 1 {
		vec = vec[:1]
	}
	for c, rs := range vec {
		if rs.intersects(t.ring[(t.head+c)%len(t.ring)]) {
			return false
		}
	}
	return true
}

// Reserve issues an instruction with resource vector vec in the current
// cycle.
func (t *ResTable) Reserve(vec []ResSet) {
	for c, rs := range vec {
		t.ring[(t.head+c)%len(t.ring)] |= rs
	}
}

// Advance moves the current cycle n cycles on, forgetting the cycles
// left behind.
func (t *ResTable) Advance(n int) {
	if n >= len(t.ring) {
		clear(t.ring)
		t.head = 0
		return
	}
	for ; n > 0; n-- {
		t.ring[t.head] = 0
		t.head = (t.head + 1) % len(t.ring)
	}
}
