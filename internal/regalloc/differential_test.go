package regalloc_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// corpus lowers Livermore, gentest.Golden and the serve units, C and
// textual IL. Each call lowers afresh: selection consumes the module it
// is given.
func corpus(t testing.TB) []*ir.Module {
	t.Helper()
	suite, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	mods := []*ir.Module{suite}
	for _, u := range append(gentest.Golden(), gentest.Serve()...) {
		mod, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		mods = append(mods, mod)
	}
	return mods
}

func selected(t testing.TB, m *mach.Machine, fn *ir.Func) *asm.Func {
	t.Helper()
	xform.Apply(m, fn)
	af, err := sel.Select(m, fn)
	if err != nil {
		t.Fatalf("%s %s: select: %v", m.Name, fn.Name, err)
	}
	return af
}

func text(m *mach.Machine, af *asm.Func) string {
	p := asm.Program{Machine: m, Funcs: []*asm.Func{af}}
	return p.Print()
}

// The testdata/alloc_*.sha256 files hold what the map-based allocator
// that preceded the dense tables answered on the inputs of the test
// named after each, recorded from it: per function the error, or the
// rounds, spills, slots, callee-saves, per-round spill lists and
// allocated text.

// answer allocates two identical selections of one function — with
// AllocateOpts and with the degree-checking stepped driver — requires
// one outcome of both, the same error or the same Result, per-round
// spill lists and instruction text, and renders it for the pins. It
// returns the result (nil on error).
func answer(t *testing.T, where string, m *mach.Machine, afs [2]*asm.Func, opts regalloc.Options) (string, *regalloc.Result) {
	t.Helper()
	g, gerr := new(regalloc.Scratch).AllocateOpts(m, afs[0], opts)
	s, rounds, serr := regalloc.SteppedAllocate(t, m, afs[1], opts)
	if gerr != nil || serr != nil {
		if fmt.Sprint(gerr) != fmt.Sprint(serr) {
			t.Errorf("%s: error %v, stepped %v", where, gerr, serr)
		}
		return fmt.Sprintf("spilled %v\nerror %v\n", rounds, gerr), nil
	}
	if g.Rounds != s.Rounds || g.Spills != s.Spills || g.SpillSlots != s.SpillSlots ||
		!reflect.DeepEqual(g.UsedCalleeSave, s.UsedCalleeSave) {
		t.Errorf("%s: rounds/spills/slots/callee-save %d/%d/%d/%v, stepped %d/%d/%d/%v", where,
			g.Rounds, g.Spills, g.SpillSlots, g.UsedCalleeSave, s.Rounds, s.Spills, s.SpillSlots, s.UsedCalleeSave)
	}
	got, want := text(m, afs[0]), text(m, afs[1])
	if got != want {
		t.Errorf("%s: allocated code differs from the stepped driver's\n--- got ---\n%s--- stepped ---\n%s", where, got, want)
	}
	return fmt.Sprintf("spilled %v\nrounds=%d spills=%d slots=%d callee-save=%v\n%s",
		rounds, s.Rounds, s.Spills, s.SpillSlots, s.UsedCalleeSave, want), s
}

// TestAllocateMatchesReferenceOnCorpus: on every target, every function
// of Livermore, gentest.Golden and the serve units allocates as the
// reference did, with and without SpillGlobals (the Local strategy's
// option).
func TestAllocateMatchesReferenceOnCorpus(t *testing.T) {
	pins := gentest.ReadPins(t, "testdata/alloc_corpus.sha256")
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []regalloc.Options{{}, {SpillGlobals: true}} {
			fns, spilled := 0, 0
			line := gentest.NewLine(fmt.Sprintf("corpus/%s/%s", target, optsName(opts)))
			answers := map[string]string{}
			mods := [2][]*ir.Module{corpus(t), corpus(t)}
			for mi := range mods[0] {
				for fi, fn := range mods[0][mi].Funcs {
					name := mods[0][mi].Name + ":" + fn.Name
					where := fmt.Sprintf("%s %s globals=%v", target, name, opts.SpillGlobals)
					var afs [2]*asm.Func
					for j := range afs {
						afs[j] = selected(t, m, mods[j][mi].Funcs[fi])
					}
					ans, res := answer(t, where, m, afs, opts)
					line.Add(name, ans)
					answers[name] = ans
					fns++
					if res != nil && res.Spills > 0 {
						spilled++
					}
				}
			}
			if name, ok := pins.Check(t, line.String()); !ok && name != "" {
				t.Errorf("%s now allocates as\n%s", name, answers[name])
			}
			t.Logf("%s globals=%v: %d functions, %d spilled", target, opts.SpillGlobals, fns, spilled)
		}
	}
}

func optsName(opts regalloc.Options) string {
	if opts.SpillGlobals {
		return "globals"
	}
	return "plain"
}

// sparseLabelIL is a loop around an if/else whose else block carries the
// label hugeLabel. An IL-text label is the block's ir.Block.ID verbatim,
// and mariond compiles IL text from the request body.
const (
	hugeLabel     = "L1500000000"
	sparseLabelIL = `module sparse.il
global a int size 256 array

func f ret int
reg t0 int "n"
reg t1 int "i"
reg t2 int "s"
param n int size 4 offset 0 reg t0
frame 0
block L0 depth 0
(asgn int t2 (def $0 (const int 0)))
(asgn int t1 $0)
(jump L1)
block L1 depth 1
(branch L4 (ge int (reg int t1) (reg int t0)))
block L2 depth 1
(branch ` + hugeLabel + ` (le int (load int (add ptr (add ptr (addr a) (shl int (reg int t1) (const int 2))) (const int 0))) (const int 3)))
block L5 depth 1
(asgn int t2 (add int (reg int t2) (load int (add ptr (add ptr (addr a) (shl int (reg int t1) (const int 2))) (const int 0)))))
(jump L6)
block ` + hugeLabel + ` depth 1
(asgn int t2 (sub int (reg int t2) (reg int t1)))
block L6 depth 1
(asgn int t1 (add int (reg int t1) (const int 1)))
(jump L1)
block L4 depth 0
(ret int (reg int t2))
`
)

// TestAllocateSparseBlockIDs: no table of the allocator may be sized by
// a block ID. A function with one huge label allocates as the reference
// did, in memory that fits the function, to the text the same function
// gives under a small label; and the rest of the back end compiles it
// under every strategy with the emitted-code verifier on.
func TestAllocateSparseBlockIDs(t *testing.T) {
	parse := func(m *mach.Machine, src string) *asm.Func {
		mod, err := iltext.Parse("sparse.il", src)
		if err != nil {
			t.Fatal(err)
		}
		return selected(t, m, mod.Lookup("f"))
	}
	pins := gentest.ReadPins(t, "testdata/alloc_sparse.sha256")
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []regalloc.Options{{}, {SpillGlobals: true}} {
			where := fmt.Sprintf("%s sparse labels globals=%v", target, opts.SpillGlobals)
			afs := [2]*asm.Func{parse(m, sparseLabelIL), parse(m, sparseLabelIL)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ans, _ := answer(t, where, m, afs, opts)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
				t.Errorf("%s: two allocations of a seven-block function allocated %d bytes", where, got)
			}
			line := gentest.NewLine(fmt.Sprintf("sparse/%s/%s", target, optsName(opts)))
			line.Add("f", ans)
			if _, ok := pins.Check(t, line.String()); !ok {
				t.Errorf("%s now allocates as\n%s", where, ans)
			}
			small := parse(m, strings.ReplaceAll(sparseLabelIL, hugeLabel, "L7"))
			if _, err := new(regalloc.Scratch).AllocateOpts(m, small, opts); err != nil {
				t.Fatalf("%s: small label: %v", where, err)
			}
			if got, want := text(m, afs[0]), strings.ReplaceAll(text(m, small), "L7", hugeLabel); got != want {
				t.Errorf("%s: huge label:\n%s\nsmall label:\n%s", where, got, want)
			}
		}
		for k := strategy.Naive; k <= strategy.Safe; k++ {
			c, err := driver.Compile(target, "il", "sparse.il", sparseLabelIL, driver.Config{Strategy: k, Verify: true, Strict: true})
			if err != nil {
				t.Fatalf("%s %s: compile: %v", target, k, err)
			}
			if !c.Verify.Empty() {
				t.Fatalf("%s %s: verifier findings:\n%s", target, k, c.Verify)
			}
		}
	}
}

// genTargets are the machines the generated differential runs on: toyp
// (4 allocable ints, 2 doubles: spill code is most of the function) and
// the three bench targets.
var genTargets = []string{"toyp", "r2000", "m88000", "i860"}

const genPerTarget = 200

// TestAllocateMatchesReferenceOnGenerated samples what the golden
// corpus under-samples — spill choice, spill-list order, NoSpill
// temporaries, pair pressure, rounds past the second — on seeded
// high-pressure functions, each allocated as the reference did, and runs
// each through the whole back end with the emitted-code verifier on.
func TestAllocateMatchesReferenceOnGenerated(t *testing.T) {
	pins := gentest.ReadPins(t, "testdata/alloc_generated.sha256")
	for _, target := range genTargets {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		spilled, deep := 0, 0
		line := gentest.NewLine("generated/" + target)
		answers := map[string]string{}
		for _, u := range gentest.Generated(genPerTarget) {
			src := u.Text
			where := fmt.Sprintf("%s generated %s", target, u.Name)
			var afs [2]*asm.Func
			for j := range afs {
				mod, err := driver.Frontend(u.Name, src)
				if err != nil {
					t.Fatalf("%s: %v\n%s", where, err, src)
				}
				afs[j] = selected(t, m, mod.Lookup("f"))
			}
			ans, res := answer(t, where, m, afs, regalloc.Options{})
			if t.Failed() {
				t.Fatalf("%s: source:\n%s", where, src)
			}
			line.Add(u.Name, ans)
			answers[u.Name] = ans + "source:\n" + src
			if res == nil {
				continue
			}
			if res.Spills > 0 {
				spilled++
			}
			if res.Rounds >= 3 {
				deep++
			}
			c, err := driver.Compile(target, "c", u.Name, src, driver.Config{Strategy: strategy.Postpass, Verify: true, Strict: true})
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", where, err, src)
			}
			if !c.Verify.Empty() {
				t.Fatalf("%s: verifier findings:\n%s\n%s", where, c.Verify, src)
			}
		}
		if name, ok := pins.Check(t, line.String()); !ok && name != "" {
			t.Errorf("%s %s now allocates as\n%s", target, name, answers[name])
		}
		t.Logf("%s: %d generated, %d spilled, %d took >= 3 rounds", target, genPerTarget, spilled, deep)
		if spilled < genPerTarget/2 {
			t.Errorf("%s: only %d of %d generated functions spilled", target, spilled, genPerTarget)
		}
		if deep < genPerTarget/10 {
			t.Errorf("%s: only %d of %d generated functions took >= 3 rounds", target, deep, genPerTarget)
		}
	}
}

// TestScratchReuseMatchesFresh: the generated functions of
// TestAllocateMatchesReferenceOnGenerated, all 800 allocated on one
// Scratch — the four machines mixed, largest function first and then
// smallest first, so the machine facts are rebuilt and every table both
// shrinks and grows — give what a fresh scratch gives: the same Result
// or error, and the same allocated code. Every other function forces
// SpillGlobals, the Local strategy's option.
func TestScratchReuseMatchesFresh(t *testing.T) {
	type job struct {
		where string
		m     *mach.Machine
		u     gentest.Unit
		opts  regalloc.Options
		size  int
	}
	lower := func(j job) *asm.Func {
		mod, err := driver.Frontend(j.u.Name, j.u.Text)
		if err != nil {
			t.Fatalf("%s: %v", j.where, err)
		}
		return selected(t, j.m, mod.Lookup("f"))
	}
	var jobs []job
	for _, target := range genTargets {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range gentest.Generated(genPerTarget) {
			j := job{where: fmt.Sprintf("%s generated %s", target, u.Name), m: m,
				u: u, opts: regalloc.Options{SpillGlobals: i%2 == 1}}
			for _, b := range lower(j).Blocks {
				j.size += len(b.Insts)
			}
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].size > jobs[b].size })
	var sc regalloc.Scratch
	check := func(j job) {
		fresh, warm := lower(j), lower(j)
		want, werr := new(regalloc.Scratch).AllocateOpts(j.m, fresh, j.opts)
		got, gerr := sc.AllocateOpts(j.m, warm, j.opts)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v on a warmed scratch, %v on a fresh one", j.where, gerr, werr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result %+v on a warmed scratch, %+v on a fresh one", j.where, got, want)
		}
		if g, w := text(j.m, warm), text(j.m, fresh); g != w {
			t.Fatalf("%s: a warmed scratch allocates\n%s\na fresh one\n%s", j.where, g, w)
		}
	}
	for _, j := range jobs {
		check(j)
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		check(jobs[i])
	}
}
