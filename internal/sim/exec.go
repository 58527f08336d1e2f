package sim

import (
	"fmt"

	"marion/internal/asm"
	"marion/internal/cdag"
)

// exec runs from the entry of function fi until the halt sentinel is
// reached through the return-address register.
func (s *Sim) exec(fi int) error {
	pc := pcOf(fi, 0)

	// A pending control transfer: taken after pendSlots more
	// instructions execute (branch delay slots); none while it is 0.
	var pendTarget uint32
	pendSlots := 0
	// One write queue for the run, emptied for every word.
	var ctx execCtx

	for {
		if s.cycle > maxCycles {
			return fmt.Errorf("sim: cycle limit %d exceeded (infinite loop?)", int64(maxCycles))
		}
		f, i := pcFunc(pc), pcInst(pc)
		if f >= len(s.code) || i >= len(s.code[f]) {
			return fmt.Errorf("sim: pc out of range (%s+%d)", s.prog.Funcs[f].Name, i)
		}
		if b := s.blockAt[f][i]; b != nil {
			s.stats.BlockCounts[b]++
		}

		// Gather the instruction word: consecutive instructions in the
		// same block sharing a non-negative issue cycle.
		insts := s.code[f]
		end := i + 1
		if insts[i].Cycle >= 0 {
			for end < len(insts) && s.blockAt[f][end] == nil &&
				insts[end].Cycle == insts[i].Cycle {
				end++
			}
		}
		word := insts[i:end]

		t := s.issue(word)
		s.stats.Words++
		s.stats.Instrs += int64(len(word))
		if s.opts.Trace != nil {
			for _, in := range word {
				s.opts.Trace("cyc %4d (stall %d): %s", t, t-s.cycle, in)
			}
		}

		// Execute the word in two phases: all reads, then all writes.
		var transferIn *asm.Inst // the word's taken control transfer
		ctx.regWrites, ctx.latchWrites, ctx.memWrites = ctx.regWrites[:0], ctx.latchWrites[:0], ctx.memWrites[:0]
		ctx.loadPenalty = 0
		for _, in := range word {
			taken, err := s.execute(in, &ctx)
			if err != nil {
				return err
			}
			if taken && in.Tmpl.Transfers() {
				if transferIn != nil {
					return fmt.Errorf("sim: two control transfers in one word")
				}
				transferIn = in
			}
		}
		for _, w := range ctx.memWrites {
			s.mem.write(w.addr, w.size, w.bits)
		}
		for _, w := range ctx.latchWrites {
			s.latches[w.set] = w.bits
			s.latchReady[w.set] = max(s.latchReady[w.set], t+int64(w.in.Tmpl.Latency))
		}
		for _, w := range ctx.regWrites {
			s.setReg(w.phys, w.bits)
			lat := int64(w.in.Tmpl.Latency)
			if w.in.Tmpl.ReadsMem {
				lat += int64(ctx.loadPenalty)
			}
			s.setReady(w.phys, t+lat, w.in)
		}

		nextPC := pcOf(f, end)

		// Control transfer resolution.
		if transferIn != nil {
			if pendSlots > 0 {
				return fmt.Errorf("sim: control transfer inside delay slots")
			}
			slots := transferIn.Tmpl.Slots
			if slots < 0 {
				slots = -slots
			}
			var target uint32
			tmpl := transferIn.Tmpl
			switch {
			case tmpl.IsBranch || tmpl.IsJump:
				blk := transferIn.Args[tmpl.BranchOp].Block
				idx, ok := s.blockStart[f][s.prog.Funcs[f].Block(blk)]
				if !ok {
					return fmt.Errorf("sim: branch to unknown block %s", blk.Name())
				}
				target = pcOf(f, idx)
			case tmpl.IsCall:
				sym := transferIn.Args[tmpl.BranchOp].Sym
				cf, ok := s.funcIdx[sym.Name]
				if !ok {
					return fmt.Errorf("sim: call to undefined function %q", sym.Name)
				}
				target = pcOf(cf, 0)
				// Return address: the instruction after the delay slots.
				ra := pcOf(f, end+slots)
				s.setReg(s.m.Cwvm.RetAddr.Phys(), uint64(ra))
				s.setReady(s.m.Cwvm.RetAddr.Phys(), t+1, transferIn)
			case tmpl.IsRet:
				target = uint32(s.getReg(s.m.Cwvm.RetAddr.Phys()))
			}
			if slots == 0 {
				nextPC = target
			} else {
				pendTarget, pendSlots = target, slots
			}
		} else if pendSlots > 0 {
			if pendSlots -= len(word); pendSlots <= 0 {
				pendSlots, nextPC = 0, pendTarget
			}
		}

		pc = nextPC
		s.cycle = t + 1
		if pc == haltPC {
			s.stats.Cycles = s.cycle
			return nil
		}
	}
}

// issue is the scoreboard: it returns the cycle word issues in — the
// first, from s.cycle on, at which its operands are ready and the
// reservation table has every pipeline stage its members need — and
// reserves those stages. The table's current cycle is s.cycle on entry
// and the cycle after the issue on return.
func (s *Sim) issue(word []*asm.Inst) int64 {
	t := s.cycle
	for _, in := range word {
		for u := in.RegUses(s.m); u.Next(); {
			// Executable code is fully allocated: physical registers
			// only. Reads of hard-wired registers never wait.
			if u.Key.IsPseudo(s.m) || u.Hard {
				continue
			}
			al := u.Key.Phys()
			ready := s.regReady[al]
			// An explicit operand waits out its producer's latency
			// (%aux included); an implicit read only the ready time.
			if p := s.producer[al]; p != nil && u.Op >= 0 {
				if w := s.producerCycle[al] + int64(cdag.TrueLatency(s.m, p, in, 0, 0)); w > ready {
					ready = w
				}
			}
			if ready > t {
				t = ready
			}
		}
		for _, ts := range in.Tmpl.ReadsTRegs {
			if w := s.latchReady[ts]; w > t {
				t = w
			}
		}
	}
	s.table.Advance(int(t - s.cycle))
	for !s.fits(word) {
		s.table.Advance(1)
		t++
	}
	for _, in := range word {
		s.table.Reserve(in.Tmpl.ResVec)
	}
	s.table.Advance(1)
	return t
}

// fits reports whether no member of word meets a structural hazard in
// the table's current cycle.
func (s *Sim) fits(word []*asm.Inst) bool {
	for _, in := range word {
		if !s.table.Fits(in.Tmpl.ResVec, false) {
			return false
		}
	}
	return true
}
