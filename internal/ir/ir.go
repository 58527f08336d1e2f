// Package ir defines Marion's intermediate language: directed acyclic
// graphs of typed low-level operators, grouped into basic blocks and
// functions. It plays the role of Lcc's IL in the paper — the interface
// between the front end and the retargetable back end.
package ir

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// Type is the type of an IL value. Marion supports the signed C native
// types plus unsigned 32-bit integers and pointers.
type Type uint8

const (
	Void Type = iota
	I8        // char
	I16       // short
	I32       // int, long
	U32       // unsigned
	F32       // float
	F64       // double
	Ptr       // data pointer (32-bit address space)
)

var typeNames = [...]string{"void", "char", "short", "int", "unsigned", "float", "double", "ptr"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Size returns the size of the type in bytes.
func (t Type) Size() int {
	switch t {
	case Void:
		return 0
	case I8:
		return 1
	case I16:
		return 2
	case F64:
		return 8
	default:
		return 4
	}
}

// IsFloat reports whether t is a floating point type.
func (t Type) IsFloat() bool { return t == F32 || t == F64 }

// IsInt reports whether t is an integer (or pointer) type.
func (t Type) IsInt() bool {
	return t == I8 || t == I16 || t == I32 || t == U32 || t == Ptr
}

// Op is a low-level IL operator.
type Op uint8

const (
	BadOp Op = iota

	// Leaves.
	Const // integer or floating constant (IVal; Float for a float type)
	Reg   // pseudo-register reference (RegID)
	Addr  // address of a symbol (Sym)
	Frame // the frame pointer value (resolved to the CWVM %fp register)
	Stack // the stack pointer value (resolved to the CWVM %sp register)

	// Arithmetic and logical operators.
	Add
	Sub
	Mul
	Div
	Rem
	Neg
	And
	Or
	Xor
	Not // bitwise complement
	Shl
	Shr // arithmetic for signed, logical for unsigned

	Cvt  // type conversion; From holds the source type
	High // high 16 bits of a 32-bit constant/address (built-in)
	Low  // low 16 bits (built-in)

	// Memory.
	Load  // Kids[0] = address
	Store // Kids[0] = address, Kids[1] = value; statement root

	// Assignment to a pseudo-register; Kids[0] = value; statement root.
	Asgn

	// Comparisons. Cmp is the generic compare "::" of the paper; the
	// relational operators yield 0/1 when used as values and are matched
	// directly by conditional-branch patterns when under Branch.
	Cmp
	Eq
	Ne
	Lt
	Le
	Gt
	Ge

	// Control transfer; statement roots.
	Branch // Kids[0] = condition; Target taken, fallthrough otherwise
	Jump   // Target
	Call   // Sym = callee (args pre-moved to arg registers/stack)
	Ret    // return (value pre-moved to result register)

	NumOps
)

var opNames = [...]string{
	BadOp: "bad", Const: "const", Reg: "reg", Addr: "addr",
	Frame: "fp", Stack: "sp",
	Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%",
	Neg: "neg", And: "&", Or: "|", Xor: "^", Not: "~",
	Shl: "<<", Shr: ">>", Cvt: "cvt", High: "high", Low: "low",
	Load: "load", Store: "store", Asgn: "asgn",
	Cmp: "::", Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	Branch: "branch", Jump: "jump", Call: "call", Ret: "ret",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsRel reports whether op is a relational comparison operator.
func (op Op) IsRel() bool { return op >= Eq && op <= Ge }

// IsStmt reports whether op can only appear as a statement root.
func (op Op) IsStmt() bool {
	switch op {
	case Store, Asgn, Branch, Jump, Call, Ret:
		return true
	}
	return false
}

// Commutative reports whether the operator is commutative on its kids.
func (op Op) Commutative() bool {
	switch op {
	case Add, Mul, And, Or, Xor, Eq, Ne:
		return true
	}
	return false
}

// RegID names a pseudo-register within a function. Physical registers are
// not represented in the IL; the selector introduces them.
type RegID int32

// NoReg is the zero RegID, meaning "no register".
const NoReg RegID = -1

// Node is an IL expression node. Statement roots live in Block.Stmts in
// source order; shared subexpressions are represented by shared *Node
// pointers (a DAG), which the selector forces into registers.
//
// Every front end builds nodes by the thousand, so the layout is kept
// tight (TestLayout pins it): a floating constant keeps its bits in IVal
// and the 32-bit parent count shares a word with the walk number.
type Node struct {
	Op   Op
	Type Type
	From Type  // Cvt source type
	Reg  RegID // Reg, Asgn destination
	Kids []*Node

	// IVal is an integer constant's value (chars included) and, for a
	// constant of a floating type, the IEEE bits of its value: read
	// those through Float.
	IVal   int64
	Sym    *Sym   // Addr, Call
	Target *Block // Branch, Jump

	// Parents is the number of parents the node has within its block's
	// statement DAG; maintained by CountParents. A node with more than
	// one parent is a local common subexpression.
	Parents int32

	// Walk scratch (see Walk): the number the last walk that visited the
	// node gave it, and that walk's epoch. Like Parents, it belongs to
	// whoever owns the function for the moment.
	num  uint32
	walk uint64
}

// Float returns the value of a constant of a floating type, whose bits
// IVal holds. Compare bits, not values, where -0 and NaN matter.
func (n *Node) Float() float64 { return math.Float64frombits(uint64(n.IVal)) }

// walkEpoch hands out walk identities. Only uniqueness matters; no walk
// reads another's epoch.
var walkEpoch atomic.Uint64

// Walk is the visited set of one traversal of a function's statement
// DAGs, kept on the nodes themselves: a node is visited when its stamp
// equals the walk's epoch, so starting a walk clears nothing and
// allocates nothing. Stamping writes to the node, so only the goroutine
// that owns the function — the one that may also rewrite its
// statements or call CountParents — may walk it. Clone copies stamps;
// they are stale in the copy because every walk has a fresh epoch.
// The zero Walk is not a walk: start one with NewWalk.
type Walk struct{ epoch uint64 }

// NewWalk starts a traversal that has visited nothing.
func NewWalk() Walk { return Walk{epoch: walkEpoch.Add(1)} }

// Visit marks n visited and reports whether this was its first visit.
func (w Walk) Visit(n *Node) bool {
	if n.walk == w.epoch {
		return false
	}
	n.walk = w.epoch
	return true
}

// Number returns the number this walk gave n, which is next when n had
// none yet: a caller numbering nodes in first-visit order advances next
// whenever it gets next back.
func (w Walk) Number(n *Node, next uint32) uint32 {
	if w.Visit(n) {
		n.num = next
	}
	return n.num
}

// The package-level constructors build one node on its own, for tests
// and hand-built IL; a front end builds from its Slab instead.

// NewConst returns an integer constant node of the given type.
func NewConst(t Type, v int64) *Node { return new(Slab).Const(t, v) }

// NewFConst returns a floating constant node of the given type.
func NewFConst(t Type, v float64) *Node { return new(Slab).FConst(t, v) }

// NewReg returns a pseudo-register reference.
func NewReg(t Type, r RegID) *Node { return new(Slab).Reg(t, r) }

// NewAddr returns an address-of-symbol leaf.
func NewAddr(s *Sym) *Node { return new(Slab).Addr(s) }

// New returns an operator node.
func New(op Op, t Type, kids ...*Node) *Node { return new(Slab).New(op, t, kids...) }

// IsConst reports whether n is a constant node.
func (n *Node) IsConst() bool { return n.Op == Const }

// IsIntConst reports whether n is an integer constant with value v.
func (n *Node) IsIntConst(v int64) bool {
	return n.Op == Const && n.Type.IsInt() && n.IVal == v
}

// Clone returns a deep copy of the expression DAG rooted at n. Sharing
// is preserved: a subtree reachable along more than one path (a local
// common subexpression created by CSE) is cloned exactly once, so the
// clone has the same shape — and the same Fingerprint — as the
// original. No node of the clone aliases a node of the original.
func (n *Node) Clone() *Node {
	return (&cloner{walk: NewWalk()}).node(n)
}

// cloner copies statement DAGs: walk numbers the original's nodes in
// first-visit order (so cloning stamps what it copies), copies holds each
// one's copy by number, and blocks, when set, remaps branch targets.
type cloner struct {
	walk   Walk
	copies []*Node
	blocks map[*Block]*Block
	slab   Slab
}

func (c *cloner) node(n *Node) *Node {
	if n == nil {
		return nil
	}
	if id := c.walk.Number(n, uint32(len(c.copies))); int(id) < len(c.copies) {
		return c.copies[id]
	}
	cp := c.slab.Node(*n)
	c.copies = append(c.copies, cp)
	if c.blocks != nil && n.Target != nil {
		cp.Target = c.blocks[n.Target]
	}
	cp.Kids = c.slab.Kids(len(n.Kids))
	for i, k := range n.Kids {
		cp.Kids[i] = c.node(k)
	}
	return cp
}

func (n *Node) String() string {
	switch n.Op {
	case Const:
		if n.Type.IsFloat() {
			return fmt.Sprintf("%g%s", n.Float(), suffix(n.Type))
		}
		return fmt.Sprintf("%d", n.IVal)
	case Reg:
		return fmt.Sprintf("t%d", n.Reg)
	case Addr:
		return "&" + n.Sym.Name
	case Asgn:
		return fmt.Sprintf("t%d = %s", n.Reg, n.Kids[0])
	case Store:
		return fmt.Sprintf("m[%s] = %s", n.Kids[0], n.Kids[1])
	case Load:
		return fmt.Sprintf("m[%s]:%s", n.Kids[0], n.Type)
	case Cvt:
		return fmt.Sprintf("(%s<-%s %s)", n.Type, n.From, n.Kids[0])
	case Branch:
		return fmt.Sprintf("if %s goto %s", n.Kids[0], n.Target.Name())
	case Jump:
		return "goto " + n.Target.Name()
	case Call:
		return "call " + n.Sym.Name
	case Ret:
		return "ret"
	case Neg, Not, High, Low:
		return fmt.Sprintf("%s(%s)", n.Op, n.Kids[0])
	default:
		if len(n.Kids) == 2 {
			return fmt.Sprintf("(%s %s %s)", n.Kids[0], n.Op, n.Kids[1])
		}
		return n.Op.String()
	}
}

func suffix(t Type) string {
	if t == F32 {
		return "f"
	}
	return ""
}

// SymKind classifies a symbol.
type SymKind uint8

const (
	SymGlobal SymKind = iota
	SymLocal
	SymParam
	SymFunc
)

// MaxSize bounds a symbol's size in bytes: the shipped descriptions
// address memory m[0:2147483647], so no larger object fits.
const MaxSize = 1<<31 - 1

// Sym is a named program entity: a global, a stack local, a parameter or
// a function.
type Sym struct {
	Name string
	Kind SymKind
	Type Type // element type for arrays
	// Size is the total size in bytes (array size for arrays, element
	// size for scalars), at most MaxSize. Functions have size 0.
	Size int
	// Offset is assigned by the back end: frame offset for locals and
	// stack-resident params, absolute address for globals.
	Offset int
	// IsArray distinguishes arrays from scalars of the same type.
	IsArray bool
	// Init holds optional initial data for globals (words, by element).
	InitI []int64
	InitF []float64
}

// Block is a basic block: a label, an ordered list of statement roots and
// CFG edges.
type Block struct {
	ID    int
	Stmts []*Node
	Succs []*Block
	Preds []*Block
	Fn    *Func
	// LoopDepth is the loop nesting depth (0 = not in a loop), recorded
	// by the front end and used for spill-cost weighting and the
	// profiling substitute.
	LoopDepth int
}

// Name returns the block's label, unique within its function.
func (b *Block) Name() string {
	var buf [12]byte
	return string(b.AppendName(buf[:0]))
}

// AppendName appends the block's label to dst.
func (b *Block) AppendName(dst []byte) []byte {
	return strconv.AppendInt(append(dst, 'L'), int64(b.ID), 10)
}

// AddEdge records a CFG edge from b to s.
func (b *Block) AddEdge(s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// RegInfo describes one pseudo-register of a function.
type RegInfo struct {
	Type Type
	Name string // user variable name, or "" for a temporary
	// Global is true when the pseudo-register is live in more than one
	// basic block (a "global pseudo-register" in the paper's terms).
	Global bool
}

// Func is a function: a CFG of basic blocks plus the pseudo-register table.
type Func struct {
	Name    string
	Params  []*Sym
	Locals  []*Sym
	Blocks  []*Block
	Regs    []RegInfo
	RetType Type

	// ParamRegs maps each parameter to the pseudo-register holding its
	// value, or NoReg when the parameter is memory-resident (its Sym
	// carries a frame offset instead).
	ParamRegs []RegID

	// LocalFrame is the number of bytes of memory-resident locals,
	// allocated at negative offsets from the frame pointer.
	LocalFrame int

	nextBlock int
}

// NewFunc returns an empty function.
func NewFunc(name string, ret Type) *Func {
	return &Func{Name: name, RetType: ret}
}

// NewReg allocates a fresh pseudo-register of type t.
func (f *Func) NewReg(t Type, name string) RegID {
	f.Regs = append(f.Regs, RegInfo{Type: t, Name: name})
	return RegID(len(f.Regs) - 1)
}

// RegType returns the type of pseudo-register r.
func (f *Func) RegType(r RegID) Type { return f.Regs[r].Type }

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlock, Fn: f}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// SetNextBlockID sets the ID the next NewBlock call will allocate.
// Reconstruction paths (the textual IL parser) use it to restore the
// counter after rebuilding a block list whose IDs are sparse because
// unreachable blocks were pruned.
func (f *Func) SetNextBlockID(n int) { f.nextBlock = n }

// Clone returns a deep copy of the function: fresh blocks and fresh
// expression nodes, with DAG sharing preserved (a node shared between
// statements is cloned once) and branch targets remapped to the cloned
// blocks. Symbols are shared — the back end never mutates them
// per-attempt (globals are laid out once per module, local offsets come
// from the front end) — so a clone can be compiled independently of the
// original. Cloning stamps the original's nodes (see Walk), so only the
// goroutine that owns f may clone it.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:       f.Name,
		Params:     append([]*Sym(nil), f.Params...),
		Locals:     append([]*Sym(nil), f.Locals...),
		Regs:       append([]RegInfo(nil), f.Regs...),
		RetType:    f.RetType,
		ParamRegs:  append([]RegID(nil), f.ParamRegs...),
		LocalFrame: f.LocalFrame,
		nextBlock:  f.nextBlock,
	}
	blocks := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Fn: nf, LoopDepth: b.LoopDepth}
		blocks[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	c := cloner{walk: NewWalk(), blocks: blocks}
	for _, b := range f.Blocks {
		nb := blocks[b]
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, blocks[s])
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, blocks[p])
		}
		nb.Stmts = make([]*Node, len(b.Stmts))
		for i, s := range b.Stmts {
			nb.Stmts[i] = c.node(s)
		}
	}
	return nf
}

// NodeCount returns the number of distinct nodes in the function's
// statement DAGs: the size the back end's per-function work and tables
// scale with. It walks (stamps) f.
func (f *Func) NodeCount() int {
	w, n := NewWalk(), 0
	for _, b := range f.Blocks {
		for _, s := range b.Stmts {
			n += w.count(s)
		}
	}
	return n
}

func (w Walk) count(n *Node) int {
	if !w.Visit(n) {
		return 0
	}
	c := 1
	for _, k := range n.Kids {
		c += w.count(k)
	}
	return c
}

// Module is a translation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Sym
	Funcs   []*Func
}

// Lookup returns the function with the given name, or nil.
func (m *Module) Lookup(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// CountParents recomputes Node.Parents for every node reachable from the
// block's statement roots. Statement roots themselves get Parents == 0.
func (b *Block) CountParents() {
	zero := NewWalk()
	for _, s := range b.Stmts {
		zero.zeroParents(s)
	}
	count := NewWalk()
	for _, s := range b.Stmts {
		count.addParents(s)
	}
}

func (w Walk) zeroParents(n *Node) {
	n.Parents = 0
	for _, k := range n.Kids {
		if w.Visit(k) {
			w.zeroParents(k)
		}
	}
}

func (w Walk) addParents(n *Node) {
	for _, k := range n.Kids {
		k.Parents++
		if w.Visit(k) {
			w.addParents(k)
		}
	}
}

// MarkGlobalRegs sets RegInfo.Global for every pseudo-register referenced
// in more than one basic block.
func (f *Func) MarkGlobalRegs() {
	// first[r] is 1 + the index of the first block that mentions r.
	first := make([]int, len(f.Regs))
	for i, b := range f.Blocks {
		w := NewWalk()
		for _, s := range b.Stmts {
			f.markRegs(w, s, first, i+1)
		}
	}
}

func (f *Func) markRegs(w Walk, n *Node, first []int, bid int) {
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
		f.markRegs(w, k, first, bid)
	}
}
