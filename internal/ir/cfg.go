package ir

import "fmt"

// BlockRef names a block of the function a CFG is building: the blocks
// are made only when the function is copied out.
type BlockRef int32

// CFG is the storage a front end builds one function's control flow
// graph in, kept from function to function and unit to unit: the blocks
// made so far and their layout, the statement stack, the edge log and
// the register table. No block exists until Finish copies the finished
// function out, once, so a built function holds exactly what it needs:
// one array of its blocks, one list of block pointers that its Blocks
// and every block's Succs and Preds are views of, each with cap == len,
// statement lists carved cap == len from the unit's slab, and a
// register table of its size.
//
// Edges are not recorded as they are made: Finish derives them from the
// statements and the layout, in one order whatever the front end. A
// block's successors are the targets of its Branch and Jump statements,
// in statement order, then the next block in the layout unless its last
// statement is a Jump or a Ret; a block's predecessors are in the order
// those edges come in the layout. A Branch or a Jump names a block that
// does not exist yet, so the CFG makes it (Jump, Branch), holding the
// target's BlockRef in IVal until Finish sets Target.
//
// The zero CFG is ready to use; it belongs to one goroutine at a time.
type CFG struct {
	fn *Func

	label  []int     // by BlockRef, each block's ID once built
	depth  []int     // by BlockRef, each block's loop depth
	at     []int32   // by BlockRef, 1 + the block's layout position, 0 until started
	layout []int32   // BlockRefs in the order the blocks started
	first  []int32   // by layout position, where its statements start in stmts
	stmts  []*Node   // the statements, block after block in layout order
	ctl    []*Node   // every Branch and Jump made for the function
	regs   []RegInfo // the function's registers

	// Finish's tables: the edge log (each block's successors as
	// BlockRefs, from efirst by layout position), predecessor counts and
	// built positions by BlockRef, and MarkGlobalRegs' table.
	edges  []int32
	efirst []int32
	preds  []int32
	built  []int32
	seen   []int32
}

// Begin starts building fn, which has no blocks or registers yet.
func (c *CFG) Begin(fn *Func) {
	c.fn = fn
	c.label, c.depth, c.at = c.label[:0], c.depth[:0], c.at[:0]
	c.layout, c.first = c.layout[:0], c.first[:0]
	c.stmts, c.ctl, c.regs = c.stmts[:0], c.ctl[:0], c.regs[:0]
}

// NewBlock names a new block whose ID, once built, is its BlockRef: the
// number of blocks named before it.
func (c *CFG) NewBlock() BlockRef { return c.Labeled(len(c.label)) }

// Labeled names a new block whose ID, once built, is id, for a front end
// that reads the labels it is given.
func (c *CFG) Labeled(id int) BlockRef {
	c.label = append(c.label, id)
	c.depth = append(c.depth, 0)
	c.at = append(c.at, 0)
	return BlockRef(len(c.label) - 1)
}

// Start lays b out, at loop depth depth, after the blocks started
// before it, and makes it the block Append adds to. A block starts once.
func (c *CFG) Start(b BlockRef, depth int) {
	if c.Started(b) {
		panic(fmt.Sprintf("ir: block L%d of %s started twice", c.label[b], c.fn.Name))
	}
	c.layout = append(c.layout, int32(b))
	c.first = append(c.first, int32(len(c.stmts)))
	c.at[b], c.depth[b] = int32(len(c.layout)), depth
}

// Started reports whether b has started.
func (c *CFG) Started(b BlockRef) bool { return c.at[b] != 0 }

// Append adds statements to the block started last.
func (c *CFG) Append(stmts ...*Node) { c.stmts = append(c.stmts, stmts...) }

// Last returns the last statement of the block started last, or nil
// when it has none.
func (c *CFG) Last() *Node {
	if len(c.layout) == 0 || int(c.first[len(c.first)-1]) == len(c.stmts) {
		return nil
	}
	return c.stmts[len(c.stmts)-1]
}

// Jump returns a jump to b, carved from nodes.
func (c *CFG) Jump(nodes *Slab, b BlockRef) *Node {
	n := nodes.Node(Node{Op: Jump, IVal: int64(b)})
	c.ctl = append(c.ctl, n)
	return n
}

// Branch returns a branch to b on cond, carved from nodes.
func (c *CFG) Branch(nodes *Slab, b BlockRef, cond *Node) *Node {
	n := nodes.Node(Node{Op: Branch, IVal: int64(b)}, cond)
	c.ctl = append(c.ctl, n)
	return n
}

// NewReg allocates a fresh pseudo-register of type t.
func (c *CFG) NewReg(t Type, name string) RegID {
	c.regs = append(c.regs, RegInfo{Type: t, Name: name})
	return RegID(len(c.regs) - 1)
}

// Regs returns the number of registers allocated so far.
func (c *CFG) Regs() int { return len(c.regs) }

// Finish copies the function out: its Blocks, each block's statements
// (carved from nodes), edges and loop depth, its branch targets and its
// Regs. With prune set, a block other than the first that has no
// predecessor is dropped with its edges, in layout order, so that a
// block only a dropped one reached goes too when the dropped one comes
// first. It fails when a block named never started, when a Branch or a
// Jump statement was not made by the CFG, or when the last block can
// fall through.
func (c *CFG) Finish(nodes *Slab, prune bool) error {
	fn, n := c.fn, len(c.layout)
	if len(c.label) != n {
		missing := -1
		for b, at := range c.at {
			if at == 0 && (missing < 0 || c.label[b] < missing) {
				missing = c.label[b]
			}
		}
		return fmt.Errorf("func %s: referenced block L%d never declared", fn.Name, missing)
	}
	// The edge log, and each block's predecessor count.
	c.first = append(c.first, int32(len(c.stmts)))
	c.edges, c.efirst = c.edges[:0], Grow(c.efirst, n+1)
	c.preds = Grow(c.preds, n)
	for i, b := range c.layout {
		c.efirst[i] = int32(len(c.edges))
		stmts := c.stmts[c.first[i]:c.first[i+1]]
		for _, s := range stmts {
			if s.Op == Branch || s.Op == Jump {
				if s.Target != nil || uint64(s.IVal) >= uint64(n) {
					return fmt.Errorf("func %s: block L%d branches to a block the CFG did not name", fn.Name, c.label[b])
				}
				c.edges = append(c.edges, int32(s.IVal))
			}
		}
		if k := len(stmts); k == 0 || stmts[k-1].Op != Jump && stmts[k-1].Op != Ret {
			if i+1 == n {
				return fmt.Errorf("func %s: block L%d falls off the end of the function", fn.Name, c.label[b])
			}
			c.edges = append(c.edges, c.layout[i+1])
		}
		for _, to := range c.edges[c.efirst[i]:] {
			c.preds[to]++
		}
	}
	c.efirst[n] = int32(len(c.edges))

	// Which blocks survive, where each goes, and how many edges stay.
	c.built = Grow(c.built, n)
	kept, edges := 0, 0
	for i, b := range c.layout {
		if prune && i > 0 && c.preds[b] == 0 {
			c.built[b] = -1
			for _, to := range c.edges[c.efirst[i]:c.efirst[i+1]] {
				c.preds[to]--
			}
			continue
		}
		c.built[b] = int32(kept)
		kept++
		edges += int(c.efirst[i+1] - c.efirst[i])
	}

	// One array of blocks, and one list that holds Blocks, then every
	// block's successors, then every block's predecessors.
	blocks := make([]Block, kept)
	ptrs := make([]*Block, kept+2*edges)
	fn.Blocks = ptrs[:kept:kept]
	succ, pred := kept, kept+edges
	for i, b := range c.layout {
		at := c.built[b]
		if at < 0 {
			continue
		}
		nb := &blocks[at]
		nb.ID, nb.Fn, nb.LoopDepth = c.label[b], fn, c.depth[b]
		ptrs[at] = nb
		if out := c.edges[c.efirst[i]:c.efirst[i+1]]; len(out) > 0 {
			nb.Succs = ptrs[succ : succ+len(out) : succ+len(out)]
			for j, to := range out {
				nb.Succs[j] = &blocks[c.built[to]]
			}
			succ += len(out)
		}
		if np := int(c.preds[b]); np > 0 {
			nb.Preds = ptrs[pred : pred : pred+np]
			pred += np
		}
		if stmts := c.stmts[c.first[i]:c.first[i+1]]; len(stmts) > 0 {
			nb.Stmts = nodes.Kids(len(stmts))
			copy(nb.Stmts, stmts)
		}
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
	// A branch left in a dropped block may name a dropped block.
	for _, s := range c.ctl {
		if at := c.built[s.IVal]; at >= 0 {
			s.Target = &blocks[at]
		}
		s.IVal = 0
	}
	if len(c.regs) > 0 {
		fn.Regs = make([]RegInfo, len(c.regs))
		copy(fn.Regs, c.regs)
	}
	return nil
}

// MarkGlobalRegs sets RegInfo.Global for every pseudo-register of fn
// referenced in more than one of its blocks.
func (c *CFG) MarkGlobalRegs(fn *Func) {
	// seen[r] is 1 + the index of the first block that mentions r.
	c.seen = Grow(c.seen, len(fn.Regs))
	for i, b := range fn.Blocks {
		w := NewWalk()
		for _, s := range b.Stmts {
			markRegs(fn, w, s, c.seen, int32(i+1))
		}
	}
}

func markRegs(f *Func, w Walk, n *Node, first []int32, bid int32) {
	if !w.Visit(n) {
		return
	}
	// A register the function never declared has no RegInfo to mark.
	if (n.Op == Reg || n.Op == Asgn) && uint(n.Reg) < uint(len(first)) {
		switch fb := first[n.Reg]; {
		case fb == 0:
			first[n.Reg] = bid
		case fb != bid:
			f.Regs[n.Reg].Global = true
		}
	}
	for _, k := range n.Kids {
		markRegs(f, w, k, first, bid)
	}
}

// Detach readies c to wait in a pool: it drops the function it built
// last and empties every list, keeping its storage up to the bound for
// the next unit.
func (c *CFG) Detach() {
	c.fn = nil
	c.stmts, c.ctl, c.regs = Keep(c.stmts), Keep(c.ctl), Keep(c.regs)
	c.label, c.depth, c.at = Keep(c.label), Keep(c.depth), Keep(c.at)
	c.layout, c.first, c.edges = Keep(c.layout), Keep(c.first), Keep(c.edges)
	c.efirst, c.preds, c.built, c.seen = Trim(c.efirst), Trim(c.preds), Trim(c.built), Trim(c.seen)
}
