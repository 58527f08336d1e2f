package sched

import "marion/internal/mach"

// word is the instruction word being filled in the current cycle, with
// the reservation table it issues into. It is the one statement of "may
// this instruction join this word?": the packing classes of everything
// in the word must still have a long-word element in common (§4.5) and
// the pipeline stages the instruction needs must be free (§4.3).
type word struct {
	table     mach.ResTable
	issueOnly bool // Options.CurrentCycleOnly
	class     mach.ClassSet
	classed   bool // class is the intersection of at least one class
	n         int  // instructions in the word
}

// reset starts the first word of a schedule whose resource vectors span
// at most window cycles.
func (w *word) reset(window int, issueOnly bool) {
	w.table.Reset(window)
	*w = word{table: w.table, issueOnly: issueOnly}
}

// next starts the following cycle's word.
func (w *word) next() {
	w.table.Advance(1)
	w.class, w.classed, w.n = mach.ClassSet{}, false, 0
}

// copyFrom makes w a copy of o, for trying a temporal group out.
func (w *word) copyFrom(o *word) {
	table := w.table
	table.CopyFrom(&o.table)
	*w = *o
	w.table = table
}

// fits reports whether an instruction of template t may join the word.
func (w *word) fits(t *mach.Instr) bool {
	if w.classed && !t.Class.IsEmpty() && w.class.Intersect(t.Class).IsEmpty() {
		return false
	}
	return w.table.Fits(t.ResVec, w.issueOnly)
}

// add puts an instruction of template t into the word.
func (w *word) add(t *mach.Instr) {
	w.table.Reserve(t.ResVec)
	w.n++
	switch {
	case t.Class.IsEmpty():
	case w.classed:
		w.class = w.class.Intersect(t.Class)
	default:
		w.class, w.classed = t.Class, true
	}
}
