package sched

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/maril"
)

const pipeDesc = `
declare {
    %reg r[0:7] (int, ptr);
    %reg f[0:7] (double);
    %resource IEX, FEX, MEM;
    %def imm [-32768:32767];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable r[1:5], f[1:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %result r[2] (int);
}
instr {
    %instr ld r, r, #imm {$1 = m[$2 + $3];} [IEX; MEM] (1,3,0)
    %instr add r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr fadd f, f, f (double) {$1 = $2 + $3;} [FEX] (1,2,0)
    %instr beq0 r, #lab {if ($1 == 0) goto $2;} [IEX] (1,2,1)
    %instr nop {;} [IEX] (1,1,0)
}
`

const eapDesc = `
declare {
    %clock clk_m;
    %reg r[0:3] (int, ptr);
    %reg f[0:7] (double);
    %reg ml (double; clk_m) +temporal;
    %reg m2r (double; clk_m) +temporal;
    %reg m3r (double; clk_m) +temporal;
    %resource M1, M2, M3, FWBr, IEX;
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable f[0:7]; %calleesave f[6:7];
    %sp r[3]; %fp r[2]; %retaddr r[1]; %hard r[0] 0;
    %result f[0] (double);
}
instr {
    %instr Ml f, f (double; clk_m) {ml = $1 * $2;} [M1] (1,1,0) <pfmul>
    %instr M2 (double; clk_m) {m2r = ml;} [M2] (1,1,0) <pfmul>
    %instr M3 (double; clk_m) {m3r = m2r;} [M3] (1,1,0) <pfmul>
    %instr FWB f (double; clk_m) {$1 = m3r;} [FWBr] (1,1,0) <pfmul>
    %instr FWB1 f (double; clk_m) {$1 = ml;} [FWBr] (1,1,0) <pfmul>
    %instr MTRANS f, f (double; clk_m) {$1 = $2;} [M1] (1,1,0) <pfmul>
    %instr iadd r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
}
`

func loadDesc(t *testing.T, src string) *mach.Machine {
	t.Helper()
	m, err := maril.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func newBlock(insts ...*asm.Inst) (*asm.Func, *asm.Block) {
	fn := ir.NewFunc("t", ir.Void)
	irb := &ir.Block{Fn: fn}
	fn.Blocks = []*ir.Block{irb}
	af := &asm.Func{Name: "t", IR: fn}
	b := &asm.Block{IR: irb, Insts: insts}
	af.Blocks = []*asm.Block{b}
	return af, b
}

// pseudo registers in set for tests
func mkPseudos(af *asm.Func, set *mach.RegSet, n int) {
	for i := 0; i < n; i++ {
		af.NewPseudo(set, ir.NoReg)
	}
}

func mustSchedule(t *testing.T, m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) int {
	t.Helper()
	cost, err := new(Scratch).Schedule(m, af, b, opts)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return cost
}

func mustRun(t *testing.T, m *mach.Machine, af *asm.Func, b *asm.Block, g *cdag.Graph, opts Options) Result {
	t.Helper()
	res, err := Run(m, af, b, g, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func mustEstimate(t *testing.T, m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) int {
	t.Helper()
	return mustRun(t, m, af, b, cdag.Build(m, b, opts.Dag), opts).Cost
}

func TestScheduleFillsLoadDelay(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	// ld t0; add t1 = t0+t0; add t2 = t3+t3 (independent)
	af, b := newBlock(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
		asm.New(nil, add, asm.Reg(2), asm.Reg(3), asm.Reg(3)),
	)
	mkPseudos(af, r, 4)
	cost := mustSchedule(t, m, af, b, Options{})
	// ld@0, independent add@1 (fills one delay cycle), dependent add@3.
	if b.Insts[0].Tmpl.Mnemonic != "ld" {
		t.Fatalf("order: %v", b.Insts)
	}
	if b.Insts[1].Tmpl.Mnemonic != "add" || b.Insts[1].Args[0].Pseudo != 2 {
		t.Errorf("independent add should fill the delay slot: %v at cycle %d",
			b.Insts[1], b.Insts[1].Cycle)
	}
	if b.Insts[2].Cycle != 3 {
		t.Errorf("dependent add at cycle %d, want 3", b.Insts[2].Cycle)
	}
	if cost != 4 {
		t.Errorf("cost = %d, want 4", cost)
	}
}

func TestScheduleDualIssue(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	f := m.RegSet("f")
	add := m.InstrByLabel("add")
	fadd := m.InstrByLabel("fadd")
	af, b := newBlock(
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1)),
		asm.New(nil, fadd, asm.Reg(2), asm.Reg(3), asm.Reg(3)),
	)
	af.NewPseudo(r, ir.NoReg)
	af.NewPseudo(r, ir.NoReg)
	af.NewPseudo(f, ir.NoReg)
	af.NewPseudo(f, ir.NoReg)
	cost := mustSchedule(t, m, af, b, Options{})
	if b.Insts[0].Cycle != 0 || b.Insts[1].Cycle != 0 {
		t.Errorf("int+fp should dual issue: cycles %d %d", b.Insts[0].Cycle, b.Insts[1].Cycle)
	}
	if cost != 1 {
		t.Errorf("cost = %d, want 1", cost)
	}
}

func TestScheduleStructuralHazard(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	// Two independent int adds: both need IEX -> serialized.
	af, b := newBlock(
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1)),
		asm.New(nil, add, asm.Reg(2), asm.Reg(3), asm.Reg(3)),
	)
	mkPseudos(af, r, 4)
	cost := mustSchedule(t, m, af, b, Options{})
	if b.Insts[0].Cycle == b.Insts[1].Cycle {
		t.Error("two IEX instructions packed in one cycle")
	}
	if cost != 2 {
		t.Errorf("cost = %d, want 2", cost)
	}
}

func TestScheduleDelaySlotNop(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	irb, tgt := &ir.Block{ID: 0, Fn: fn}, &ir.Block{ID: 1, Fn: fn}
	fn.Blocks = []*ir.Block{irb, tgt}
	af := &asm.Func{Name: "t", IR: fn}
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1)),
		asm.New(nil, beq, asm.Reg(0), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}}
	af.Blocks = []*asm.Block{b}
	mkPseudos(af, r, 2)
	cost := mustSchedule(t, m, af, b, Options{})
	last := b.Insts[len(b.Insts)-1]
	if last.Tmpl != m.Nop {
		t.Fatalf("expected nop in delay slot, got %v", last)
	}
	// add@0, beq@1 (latency of add is 1), nop@2.
	if cost != 3 {
		t.Errorf("cost = %d, want 3", cost)
	}
}

func TestScheduleMaxDistancePriority(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	// Thread order: cheap add first, then a load chain. Max-distance must
	// hoist the load to cycle 0.
	af, b := newBlock(
		asm.New(nil, add, asm.Reg(4), asm.Reg(5), asm.Reg(5)),
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
	)
	mkPseudos(af, r, 6)
	mustSchedule(t, m, af, b, Options{})
	if b.Insts[0].Tmpl.Mnemonic != "ld" {
		t.Errorf("load not hoisted: first = %v", b.Insts[0])
	}

	// FIFO ablation keeps thread order.
	af2, b2 := newBlock(
		asm.New(nil, add, asm.Reg(4), asm.Reg(5), asm.Reg(5)),
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
	)
	mkPseudos(af2, r, 6)
	mustSchedule(t, m, af2, b2, Options{FIFO: true})
	if b2.Insts[0].Tmpl.Mnemonic != "add" {
		t.Errorf("FIFO should keep thread order: first = %v", b2.Insts[0])
	}
}

func TestScheduleRegisterPressureLimit(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	fp := r.Phys(6)
	// Four loads, each with a dependent add into a reused register.
	// Unlimited: all loads hoist first (4 live). Limit 2: at most 2 live.
	mk := func() (*asm.Func, *asm.Block) {
		af, b := newBlock(
			asm.New(nil, ld, asm.Reg(0), asm.Phys(fp), asm.Imm(0)),
			asm.New(nil, add, asm.Reg(4), asm.Reg(0), asm.Reg(0)),
			asm.New(nil, ld, asm.Reg(1), asm.Phys(fp), asm.Imm(8)),
			asm.New(nil, add, asm.Reg(5), asm.Reg(1), asm.Reg(1)),
			asm.New(nil, ld, asm.Reg(2), asm.Phys(fp), asm.Imm(16)),
			asm.New(nil, add, asm.Reg(6), asm.Reg(2), asm.Reg(2)),
			asm.New(nil, ld, asm.Reg(3), asm.Phys(fp), asm.Imm(24)),
			asm.New(nil, add, asm.Reg(7), asm.Reg(3), asm.Reg(3)),
		)
		mkPseudos(af, r, 8)
		return af, b
	}
	maxLive := func(b *asm.Block, af *asm.Func) int {
		// replay: live range by first def / last use over final order
		first := map[asm.PseudoID]int{}
		last := map[asm.PseudoID]int{}
		for i, in := range b.Insts {
			for _, a := range in.Args {
				if a.Kind == asm.OpPseudo {
					if _, ok := first[a.Pseudo]; !ok {
						first[a.Pseudo] = i
					}
					last[a.Pseudo] = i
				}
			}
		}
		best := 0
		for i := range b.Insts {
			n := 0
			for p := range first {
				if first[p] <= i && i < last[p] {
					n++
				}
			}
			if n > best {
				best = n
			}
		}
		return best
	}

	af1, b1 := mk()
	mustSchedule(t, m, af1, b1, Options{})
	free := maxLive(b1, af1)

	af2, b2 := mk()
	lim := map[*mach.RegSet]int{r: 2}
	_, cross := af2.PseudoHomes()
	mustSchedule(t, m, af2, b2, Options{MaxLive: lim, LiveOut: LiveOutPseudos(af2, cross)})
	limited := maxLive(b2, af2)

	if free < 3 {
		t.Errorf("unlimited schedule should hoist loads (max live %d)", free)
	}
	if limited > 2 {
		t.Errorf("limited schedule exceeds limit: max live %d", limited)
	}
}

func TestTemporalPipelineOverlap(t *testing.T) {
	m := loadDesc(t, eapDesc)
	f := m.RegSet("f")
	Ml := m.InstrByLabel("Ml")
	M2 := m.InstrByLabel("M2")
	M3 := m.InstrByLabel("M3")
	FWB := m.InstrByLabel("FWB")
	// Two full multiplies: Ml;M2;M3;FWB twice. Overlapped EAP scheduling
	// should finish in 5 cycles instead of 8.
	af, b := newBlock(
		asm.New(nil, Ml, asm.Reg(0), asm.Reg(1)),
		asm.New(nil, M2),
		asm.New(nil, M3),
		asm.New(nil, FWB, asm.Reg(2)),
		asm.New(nil, Ml, asm.Reg(3), asm.Reg(4)),
		asm.New(nil, M2),
		asm.New(nil, M3),
		asm.New(nil, FWB, asm.Reg(5)),
	)
	mkPseudos(af, f, 6)
	cost := mustSchedule(t, m, af, b, Options{})
	if cost > 5 {
		t.Errorf("EAP overlap failed: cost %d, want <= 5", cost)
		for _, in := range b.Insts {
			t.Logf("cycle %d: %s", in.Cycle, in)
		}
	}
	// Rule 1: the second Ml may not issue before the first sequence's M2.
	var m2c, ml2c int32 = -1, -1
	seenMl := false
	for _, in := range b.Insts {
		switch {
		case in.Tmpl == M2 && m2c < 0:
			m2c = in.Cycle
		case in.Tmpl == Ml && seenMl && ml2c < 0:
			ml2c = in.Cycle
		case in.Tmpl == Ml:
			seenMl = true
		}
	}
	if ml2c < m2c {
		t.Errorf("Rule 1 violated: second Ml at %d before first M2 at %d", ml2c, m2c)
	}
}

func TestFigure6DeadlockProtection(t *testing.T) {
	m := loadDesc(t, eapDesc)
	f := m.RegSet("f")
	Ml := m.InstrByLabel("Ml")
	FWB1 := m.InstrByLabel("FWB1")
	MTRANS := m.InstrByLabel("MTRANS")
	// Figure 6: q heads a temporal sequence on clk_m; p affects clk_m
	// without touching the latches; r is the sequence's temporal
	// destination and also output-depends on p (alternate entry). Without
	// the protection edge p->q, scheduling q first deadlocks under Rule 1.
	af, b := newBlock(
		asm.New(nil, Ml, asm.Reg(0), asm.Reg(1)),     // q
		asm.New(nil, MTRANS, asm.Reg(2), asm.Reg(3)), // p: affects clk_m, defs t2
		asm.New(nil, FWB1, asm.Reg(2)),               // r: temporal dest, redefs t2
	)
	mkPseudos(af, f, 4)

	g := cdag.Build(m, b, cdag.Options{})
	// The protection pass must add an edge p -> q: the only edges that
	// run back against program order are its own.
	found := false
	for _, e := range g.Nodes[1].Succs {
		if e.To == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("protection edge p->q missing; succs of p: %+v", g.Nodes[1].Succs)
	}
	// And the schedule must complete with p before q.
	res := mustRun(t, m, af, b, g, Options{})
	if len(res.Order) != 3 {
		t.Fatalf("schedule incomplete: %v", res.Order)
	}
	pos := map[int]int{}
	for k, i := range res.Order {
		pos[i] = k
	}
	if pos[1] > pos[0] {
		t.Errorf("p must be scheduled before q: order %v", res.Order)
	}
	t.Run("across clocks", testProtectionAcrossClocks)
}

// eap2Desc has two clocks and a chaining sub-operation (A1M reads the
// multiplier's latch and advances the adder), the i860's a1m in small.
const eap2Desc = `
declare {
    %clock clk_m;
    %clock clk_a;
    %reg r[0:3] (int, ptr);
    %reg f[0:7] (double);
    %reg ml (double; clk_m) +temporal;
    %reg al (double; clk_a) +temporal;
    %resource M1, A1, FWBr, AWBr, IEX;
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable f[0:7]; %calleesave f[6:7];
    %sp r[3]; %fp r[2]; %retaddr r[1]; %hard r[0] 0;
    %result f[0] (double);
}
instr {
    %instr Ml f, f (double; clk_m) {ml = $1 * $2;} [M1] (1,1,0)
    %instr FWB1 f (double; clk_m) {$1 = ml;} [FWBr] (1,1,0)
    %instr MTRANS f, f (double; clk_m) {$1 = $2;} [M1] (1,1,0)
    %instr Al f, f (double; clk_a) {al = $1 + $2;} [A1] (1,1,0)
    %instr A1M f (double; clk_a) {al = ml + $1;} [A1] (1,1,0)
    %instr AWB f (double; clk_a) {$1 = al;} [AWBr] (1,1,0)
    %instr iadd r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
}
`

// testProtectionAcrossClocks: the clock-0 pass inserts a protection edge
// that runs BACKWARD in thread order (p -> q, as in Figure 6), and the
// clock-1 pass must see through it: z reaches back to the adder
// sequence's head a only along a -> p -> q -> z. An edge z -> a would
// close a cycle. (A reachability closure computed for clock 1 by a
// reverse sweep over the thread misses the path and inserts it.)
func testProtectionAcrossClocks(t *testing.T) {
	m := loadDesc(t, eap2Desc)
	inst := func(label string, seq int32, args ...asm.Operand) *asm.Inst {
		in := asm.New(nil, m.InstrByLabel(label), args...)
		in.SeqID = seq
		return in
	}
	_, b := newBlock(
		inst("Al", 1, asm.Reg(4), asm.Reg(5)),     // 0 a: heads adder sequence 1, reads t4
		inst("Ml", 2, asm.Reg(0), asm.Reg(1)),     // 1 q: heads multiplier sequence 2
		inst("MTRANS", 0, asm.Reg(4), asm.Reg(3)), // 2 p: affects clk_m, redefines t4 (a -> p)
		inst("FWB1", 2, asm.Reg(4)),               // 3 r: q's temporal destination, redefines t4 (p -> r)
		inst("A1M", 2, asm.Reg(6)),                // 4 z: reads q's latch, affects clk_a, reads t6
		inst("AWB", 1, asm.Reg(6)),                // 5 w: a's temporal destination, redefines t6 (z -> w)
	)

	g := cdag.Build(m, b, cdag.Options{})
	has := func(from, to int) bool {
		for _, e := range g.Nodes[from].Succs {
			if int(e.To) == to {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]int{{0, 2}, {1, 3}, {2, 3}, {1, 4}, {0, 5}, {4, 5}} {
		if !has(e[0], e[1]) {
			t.Fatalf("dependence edge %d -> %d missing; the test's premise is gone", e[0], e[1])
		}
	}
	if !has(2, 1) {
		t.Fatalf("clock-0 protection edge p -> q missing; succs of p: %+v", g.Nodes[2].Succs)
	}
	if has(4, 0) {
		t.Fatalf("clock-1 pass inserted z -> a, closing the cycle a -> p -> q -> z -> a")
	}
	// The block itself is not schedulable under Rule 1 (z advances clk_a
	// while a's latch is outstanding, and a must precede z), so the check
	// stops at the graph: it must still be acyclic.
	left := make([]int, len(g.Nodes))
	var free []int
	for i := range g.Nodes {
		if left[i] = len(g.Nodes[i].Preds); left[i] == 0 {
			free = append(free, i)
		}
	}
	sorted := 0
	for ; len(free) > 0; sorted++ {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		for _, e := range g.Nodes[i].Succs {
			if left[e.To]--; left[e.To] == 0 {
				free = append(free, int(e.To))
			}
		}
	}
	if sorted != len(g.Nodes) {
		t.Errorf("graph has a cycle: only %d of %d nodes sort topologically", sorted, len(g.Nodes))
	}
}

func TestScheduleCurrentCycleOnly(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	// Two independent loads: both use MEM on their second cycle. Full
	// checking separates them; current-cycle-only packs issue cycles
	// back-to-back and accepts the later structural conflict.
	af, b := newBlock(
		asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0)),
		asm.New(nil, ld, asm.Reg(1), asm.Phys(r.Phys(6)), asm.Imm(8)),
	)
	mkPseudos(af, r, 2)
	full := mustEstimate(t, m, af, b, Options{})
	cur := mustEstimate(t, m, af, b, Options{CurrentCycleOnly: true})
	if cur > full {
		t.Errorf("current-cycle-only should be no more conservative: %d vs %d", cur, full)
	}
}

// TestStallCyclesAllocateNothing: a schedule that spends most of its
// cycles waiting on operand latency must not allocate more than the same
// graph scheduled back to back — nothing in Run's cycle loop allocates
// per cycle.
func TestStallCyclesAllocateNothing(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	// A pointer chase: each load waits out the previous one's latency.
	insts := []*asm.Inst{asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0))}
	for i := 1; i < 12; i++ {
		insts = append(insts, asm.New(nil, ld, asm.Reg(asm.PseudoID(i)), asm.Reg(asm.PseudoID(i-1)), asm.Imm(0)))
	}
	af, b := newBlock(insts...)
	mkPseudos(af, r, len(insts))

	setLatency := func(g *cdag.Graph, lat int32) {
		for i := range g.Nodes {
			for j := range g.Nodes[i].Succs {
				g.Nodes[i].Succs[j].Latency = lat
			}
			for j := range g.Nodes[i].Preds {
				g.Nodes[i].Preds[j].Latency = lat
			}
		}
	}
	slow, fast := cdag.Build(m, b, cdag.Options{}), cdag.Build(m, b, cdag.Options{})
	setLatency(slow, 8)
	setLatency(fast, 1)
	if stalls := mustRun(t, m, af, b, slow, Options{}).Cost - mustRun(t, m, af, b, fast, Options{}).Cost; stalls < 50 {
		t.Fatalf("only %d stall cycles; the test wants at least 50", stalls)
	}
	allocs := func(g *cdag.Graph) float64 {
		return testing.AllocsPerRun(10, func() { mustRun(t, m, af, b, g, Options{}) })
	}
	if s, f := allocs(slow), allocs(fast); s > f {
		t.Errorf("Run allocates %v times with stall cycles, %v without", s, f)
	}
}

// fanDesc has a latch with two readers that hold a shared write-back bus
// one cycle after they issue: RDA and RDB use different stages at issue
// and the same one the cycle after.
const fanDesc = `
declare {
    %clock clk_m;
    %reg r[0:3] (int, ptr);
    %reg f[0:7] (double);
    %reg ml (double; clk_m) +temporal;
    %resource M1, RA, RB, WB;
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable f[0:7]; %calleesave f[6:7];
    %sp r[3]; %fp r[2]; %retaddr r[1]; %hard r[0] 0;
    %result f[0] (double);
}
instr {
    %instr Ml f, f (double; clk_m) {ml = $1 * $2;} [M1] (1,1,0)
    %instr RDA f (double) {$1 = ml;} [RA; WB] (1,1,0)
    %instr RDB f (double) {$1 = ml;} [RB; WB] (1,1,0)
}
`

// TestTemporalGroupChecksWholeVectors: the members of a temporal group
// are placed in one word only when their whole resource vectors are
// disjoint, not just their issue cycles. RDA and RDB both read Ml's
// latch, so they form clock clk_m's group; neither advances the clock, so
// Rule 1 lets them issue apart, and the write-back bus makes them. (Under
// CurrentCycleOnly the issue cycle is all that is compared, as for every
// other pair of instructions.)
func TestTemporalGroupChecksWholeVectors(t *testing.T) {
	m := loadDesc(t, fanDesc)
	block := func() (*asm.Func, *asm.Block) {
		af, b := newBlock(
			asm.New(nil, m.InstrByLabel("Ml"), asm.Reg(0), asm.Reg(1)),
			asm.New(nil, m.InstrByLabel("RDA"), asm.Reg(2)),
			asm.New(nil, m.InstrByLabel("RDB"), asm.Reg(3)),
		)
		mkPseudos(af, m.RegSet("f"), 4)
		return af, b
	}
	af, b := block()
	res := mustRun(t, m, af, b, cdag.Build(m, b, cdag.Options{}), Options{})
	issued := map[int]int{}
	for k, i := range res.Order {
		issued[i] = res.Cycles[k]
	}
	if issued[1] == issued[2] {
		t.Errorf("RDA and RDB both issue in cycle %d and meet on WB in cycle %d", issued[1], issued[1]+1)
	}
	if res.Cost != 3 {
		t.Errorf("cost %d, want 3: Ml, RDA and RDB issue one a cycle", res.Cost)
	}
	af, b = block()
	res = mustRun(t, m, af, b, cdag.Build(m, b, cdag.Options{}), Options{CurrentCycleOnly: true})
	if res.Cycles[1] != res.Cycles[2] {
		t.Errorf("under CurrentCycleOnly the readers issue in cycles %d and %d, want one word", res.Cycles[1], res.Cycles[2])
	}
}
