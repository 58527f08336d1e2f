package sel_test

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/targets"
	"marion/internal/xform"
)

// inOrder reports whether bucket lists templates of m in the order of
// m.Instrs, each once.
func inOrder(m *mach.Machine, bucket []*mach.Instr) bool {
	last := -1
	for _, in := range bucket {
		if in.Index <= last || in.Index >= len(m.Instrs) || m.Instrs[in.Index] != in {
			return false
		}
		last = in.Index
	}
	return true
}

// buckets returns every bucket of m's selection index, named.
func buckets(m *mach.Machine) map[string][]*mach.Instr {
	out := map[string][]*mach.Instr{"stores": m.StoreTmpls(), "branches": m.BranchTmpls()}
	for op := ir.Op(0); op < ir.NumOps; op++ {
		out["value "+op.String()] = m.ValueTmpls(op)
		out["reg "+op.String()] = m.ValueRegTmpls(op)
		for p := 0; p < m.NumPhys; p++ {
			out["fixed "+op.String()+" "+m.PhysName(mach.PhysID(p))] = m.ValueFixedTmpls(op, mach.PhysID(p))
		}
	}
	return out
}

// wantedIn returns the buckets the selector takes n's candidates from
// for tmpl: the store or branch list, or the value bucket of n's
// operator and the one its destination kind narrows that to.
func wantedIn(m *mach.Machine, tmpl *mach.Instr, n *ir.Node) map[string][]*mach.Instr {
	switch n.Op {
	case ir.Store:
		return map[string][]*mach.Instr{"stores": m.StoreTmpls()}
	case ir.Branch:
		return map[string][]*mach.Instr{"branches": m.BranchTmpls()}
	}
	out := map[string][]*mach.Instr{"value": m.ValueTmpls(n.Op)}
	if dst := tmpl.Operands[tmpl.Sem.Kids[0].OpIdx]; dst.Kind == mach.OperandReg {
		out["reg"] = m.ValueRegTmpls(n.Op)
	} else {
		out["fixed"] = m.ValueFixedTmpls(n.Op, dst.Phys())
	}
	return out
}

// TestSelIndexBuckets: the operator index only skips templates the
// matcher would reject, in the order a scan of Machine.Instrs tries
// them, so selection on it is the paper's first-match brute force. On
// every target, every bucket keeps m.Instrs order, and every template
// the matcher accepts for a node of the corpus — Livermore,
// gentest.Golden and the serve units, glue-transformed — sits in the
// bucket that node's candidates come from.
func TestSelIndexBuckets(t *testing.T) {
	units := append(gentest.Golden(), gentest.Serve()...)
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range buckets(m) {
			if !inOrder(m, b) {
				t.Errorf("%s: bucket %s is not in description order", target, name)
			}
		}
		suite, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		mods := []*ir.Module{suite}
		for _, u := range units {
			mod, err := driver.Lower(u.Lang, u.Name, u.Text)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			mods = append(mods, mod)
		}
		accepted := 0
		for _, mod := range mods {
			for _, fn := range mod.Funcs {
				xform.Apply(m, fn)
				seen := map[*ir.Node]bool{}
				var visit func(n *ir.Node)
				visit = func(n *ir.Node) {
					if seen[n] {
						return
					}
					seen[n] = true
					for _, k := range n.Kids {
						visit(k)
					}
					for _, tmpl := range m.Instrs {
						if !sel.Accepts(m, tmpl, n) {
							continue
						}
						accepted++
						for name, b := range wantedIn(m, tmpl, n) {
							if !contains(b, tmpl) {
								t.Errorf("%s %s:%s: %s accepts template %d (%s) for %s, but its %s bucket lacks it",
									target, mod.Name, fn.Name, n.Op, tmpl.Index, tmpl.Mnemonic, n, name)
							}
						}
					}
				}
				for _, b := range fn.Blocks {
					for _, st := range b.Stmts {
						visit(st)
					}
				}
			}
		}
		if accepted == 0 {
			t.Errorf("%s: the matcher accepted no template on the corpus", target)
		}
	}
}

func contains(b []*mach.Instr, tmpl *mach.Instr) bool {
	for _, in := range b {
		if in == tmpl {
			return true
		}
	}
	return false
}
