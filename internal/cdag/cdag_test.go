package cdag

import (
	"testing"
	"unsafe"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/maril"
)

const testDesc = `
declare {
    %reg r[0:7] (int, ptr);
    %resource IF, EX, MEM;
    %def imm [-32768:32767];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r;
    %allocable r[1:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %result r[2] (int);
}
instr {
    %instr ld r, r, #imm {$1 = m[$2 + $3];} [IF; EX; MEM] (1,3,0)
    %instr st r, r, #imm {m[$2 + $3] = $1;} [IF; EX; MEM] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [IF; EX] (1,1,0)
    %instr beq0 r, #lab {if ($1 == 0) goto $2;} [IF; EX] (1,2,1)
    %aux ld : st (1.$1 == 2.$1) (5)
}
`

func testMachine(t *testing.T) *mach.Machine {
	t.Helper()
	m, err := maril.Parse("test", testDesc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func block(insts ...*asm.Inst) *asm.Block {
	fn := ir.NewFunc("t", ir.Void)
	fn.Blocks = []*ir.Block{{Fn: fn}}
	return &asm.Block{IR: fn.Blocks[0], Insts: insts}
}

func findEdge(g *Graph, from, to int) (Edge, bool) {
	for _, e := range g.Nodes[from].Succs {
		if int(e.To) == to {
			return e, true
		}
	}
	return Edge{}, false
}

// TestEdgeIsSmall: a long block has thousands of edges, each stored in
// a Succs and a Preds list; the arena's size is this times two.
func TestEdgeIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Edge{}); size > 12 {
		t.Errorf("sizeof(Edge) = %d, want at most 12", size)
	}
}

func TestTrueDependenceLatency(t *testing.T) {
	m := testMachine(t)
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	r := m.RegSet("r")
	// t0 = m[r6+0]; t1 = t0 + t0
	b := block(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
	)
	g := Build(m, b, Options{})
	e, ok := findEdge(g, 0, 1)
	if !ok || e.Type != True || e.Latency != 3 {
		t.Fatalf("edge = %+v ok=%v (want true latency 3)", e, ok)
	}
}

func TestAuxLatencyOverride(t *testing.T) {
	m := testMachine(t)
	ld := m.InstrByLabel("ld")
	st := m.InstrByLabel("st")
	r := m.RegSet("r")
	// ld t0; st t0 -> same first operand: %aux raises latency to 5.
	b := block(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, st, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(8)),
	)
	g := Build(m, b, Options{})
	e, ok := findEdge(g, 0, 1)
	if !ok || e.Latency != 5 {
		t.Fatalf("aux latency: edge = %+v ok=%v", e, ok)
	}
	// Different registers: normal latency 3 applies.
	b2 := block(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, st, asm.Reg(1), asm.Phys(r.Phys(6)), asm.Imm(8)),
	)
	// t1 is undefined here, so the only edge is the memory edge.
	g2 := Build(m, b2, Options{})
	e2, ok := findEdge(g2, 0, 1)
	if !ok || e2.Type != memory {
		t.Fatalf("expected memory edge, got %+v ok=%v", e2, ok)
	}
}

func TestMemoryEdges(t *testing.T) {
	m := testMachine(t)
	ld := m.InstrByLabel("ld")
	st := m.InstrByLabel("st")
	r := m.RegSet("r")
	fp := r.Phys(6)
	b := block(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(fp), asm.Imm(0)),  // 0: load
		asm.New(nil, st, asm.Reg(1), asm.Phys(fp), asm.Imm(8)),  // 1: store (anti on mem)
		asm.New(nil, ld, asm.Reg(2), asm.Phys(fp), asm.Imm(16)), // 2: load after store
	)
	g := Build(m, b, Options{})
	if e, ok := findEdge(g, 0, 1); !ok || e.Type != memory {
		t.Errorf("load->store edge missing: %+v %v", e, ok)
	}
	if e, ok := findEdge(g, 1, 2); !ok || e.Type != memory {
		t.Errorf("store->load edge missing: %+v %v", e, ok)
	}
	if _, ok := findEdge(g, 0, 2); ok {
		t.Error("two loads must not be ordered")
	}
}

func TestAntiAndOutputEdges(t *testing.T) {
	m := testMachine(t)
	add := m.InstrByLabel("add")
	b := block(
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(2)), // 0: def t0
		asm.New(nil, add, asm.Reg(3), asm.Reg(0), asm.Reg(0)), // 1: use t0
		asm.New(nil, add, asm.Reg(0), asm.Reg(4), asm.Reg(4)), // 2: redef t0
	)
	g := Build(m, b, Options{})
	if e, ok := findEdge(g, 1, 2); !ok || e.Type != anti || e.Latency != 0 {
		t.Errorf("anti edge use->redef: %+v %v", e, ok)
	}
	if e, ok := findEdge(g, 0, 2); !ok || e.Type != anti || e.Latency != 1 {
		t.Errorf("output edge def->redef: %+v %v", e, ok)
	}
	g2 := Build(m, b, Options{NoAnti: true})
	if _, ok := findEdge(g2, 1, 2); ok {
		t.Error("NoAnti still built anti edges")
	}
}

func TestBranchStaysLast(t *testing.T) {
	m := testMachine(t)
	add := m.InstrByLabel("add")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	b0, tgt := &ir.Block{ID: 0, Fn: fn}, &ir.Block{ID: 1, Fn: fn}
	fn.Blocks = []*ir.Block{b0, tgt}
	b := &asm.Block{IR: b0, Insts: []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(2)),
		asm.New(nil, add, asm.Reg(3), asm.Reg(4), asm.Reg(5)),
		asm.New(nil, beq, asm.Reg(0), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}}
	g := Build(m, b, Options{})
	if _, ok := findEdge(g, 1, 2); !ok {
		t.Error("independent instruction not ordered before branch")
	}
	if e, _ := findEdge(g, 0, 2); e.Type != True {
		t.Errorf("branch operand edge should be true dep, got %v", e.Type)
	}

	// A node that precedes the branch through a successor needs no edge
	// of its own: only the sinks get one.
	b.Insts = []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(2)),
		asm.New(nil, add, asm.Reg(3), asm.Reg(0), asm.Reg(0)),
		asm.New(nil, beq, asm.Reg(4), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}
	g = Build(m, b, Options{})
	if _, ok := findEdge(g, 1, 2); !ok {
		t.Error("sink not ordered before branch")
	}
	if _, ok := findEdge(g, 0, 2); ok {
		t.Error("edge to the branch from a node that reaches it through its successor")
	}
}

func TestHardRegisterNoEdge(t *testing.T) {
	m := testMachine(t)
	add := m.InstrByLabel("add")
	r := m.RegSet("r")
	// Both read r0 (hard zero): no dependence between them.
	b := block(
		asm.New(nil, add, asm.Reg(0), asm.Phys(r.Phys(0)), asm.Reg(1)),
		asm.New(nil, add, asm.Reg(2), asm.Phys(r.Phys(0)), asm.Reg(3)),
	)
	g := Build(m, b, Options{})
	if _, ok := findEdge(g, 0, 1); ok {
		t.Error("hard register reads must not create edges")
	}
}

func TestHeights(t *testing.T) {
	m := testMachine(t)
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	r := m.RegSet("r")
	b := block(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)), // h = 3+1 = 4
		asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),         // h = 1
		asm.New(nil, add, asm.Reg(2), asm.Reg(1), asm.Reg(1)),         // h = 0
		asm.New(nil, add, asm.Reg(3), asm.Reg(4), asm.Reg(5)),         // h = 0 (independent)
	)
	g := Build(m, b, Options{})
	h := g.HeightsInto(nil)
	if h[0] != 4 || h[1] != 1 || h[2] != 0 || h[3] != 0 {
		t.Errorf("heights = %v", h)
	}
	for i, nd := range g.Nodes {
		if root := i == 0 || i == 3; root != (len(nd.Preds) == 0) {
			t.Errorf("node %d has %d predecessors", i, len(nd.Preds))
		}
	}
}

const temporalDesc = `
declare {
    %clock clk_m;
    %reg r[0:3] (int, ptr);
    %reg f[0:7] (double);
    %reg ml (double; clk_m) +temporal;
    %resource M1, FWBr;
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable f[0:7]; %calleesave f[6:7];
    %sp r[3]; %fp r[2]; %retaddr r[1]; %hard r[0] 0;
    %result f[0] (double);
}
instr {
    %instr Ml f, f (double; clk_m) {ml = $1 * $2;} [M1] (1,2,0)
    %instr FWA f, f (double; clk_m) {$1 = ml + $2;} [FWBr] (1,1,0)
}
`

// TestTemporalEdgeSurvivesMerge: when one pair of instructions is
// ordered both through a register and through a temporal latch, the one
// edge kept for the pair must stay temporal — whichever dependence was
// found first — or the consumer drops out of the producer's temporal
// group and Rule 1 is not enforced for it. Build finds the register
// dependence first.
func TestTemporalEdgeSurvivesMerge(t *testing.T) {
	m, err := maril.Parse("test", temporalDesc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.RegSet("f")
	// The producer writes the latch and, implicitly, f3; the consumer
	// reads both.
	prod := asm.New(nil, m.InstrByLabel("Ml"), asm.Reg(0), asm.Reg(1))
	prod.Imp = &asm.Implicit{Defs: []mach.PhysID{f.Phys(3)}}
	cons := asm.New(nil, m.InstrByLabel("FWA"), asm.Reg(2), asm.Phys(f.Phys(3)))
	prod.SeqID, cons.SeqID = 1, 1
	g := Build(m, block(prod, cons), Options{})

	if len(g.Nodes[0].Succs) != 1 || len(g.Nodes[1].Preds) != 1 {
		t.Fatalf("want one merged edge, got succs %+v preds %+v", g.Nodes[0].Succs, g.Nodes[1].Preds)
	}
	want := Edge{To: 1, Latency: 2, Type: True, Clock: 0}
	if e := g.Nodes[0].Succs[0]; e != want {
		t.Errorf("Succs edge = %+v, want %+v", e, want)
	}
	want.To = 0
	if e := g.Nodes[1].Preds[0]; e != want {
		t.Errorf("Preds edge = %+v, want %+v", e, want)
	}
}
