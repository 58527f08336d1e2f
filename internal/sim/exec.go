package sim

import (
	"fmt"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/mach"
)

// exec runs from the entry of function fi until the halt sentinel is
// reached through the return-address register.
func (s *Sim) exec(fi int) error {
	pc := pcOf(fi, 0)

	// A pending control transfer: taken after slotsLeft more
	// instructions execute (branch delay slots).
	var pendTarget uint32
	pendSlots := 0
	pendActive := false
	var curBlock *asm.Block
	lastCycle := s.cycle

	for {
		if s.cycle > s.opts.MaxCycles {
			return fmt.Errorf("sim: cycle limit %d exceeded (infinite loop?)", s.opts.MaxCycles)
		}
		f, i := pcFunc(pc), pcInst(pc)
		if f >= len(s.code) || i >= len(s.code[f]) {
			return fmt.Errorf("sim: pc out of range (%s+%d)", s.prog.Funcs[f].Name, i)
		}
		if b := s.blockAt[f][i]; b != nil {
			s.stats.BlockCounts[b]++
			curBlock = b
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

		// Scoreboard: the word issues when operands are ready and no
		// structural hazard remains.
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
	structural:
		for {
			for _, in := range word {
				for c, rs := range in.Tmpl.ResVec {
					if rs.Intersects(s.busyAt(t + int64(c))) {
						t++
						continue structural
					}
				}
			}
			break
		}

		// Issue: reserve resources.
		for _, in := range word {
			for c, rs := range in.Tmpl.ResVec {
				s.reserve(t+int64(c), rs)
			}
		}
		s.stats.Words++
		s.stats.Instrs += int64(len(word))
		if curBlock != nil {
			s.stats.BlockCycles[curBlock] += t + 1 - lastCycle
		}
		lastCycle = t + 1
		if s.trace != nil {
			for _, in := range word {
				s.trace("cyc %4d (stall %d): %s", t, t-s.cycle, in)
			}
		}

		// Execute the word in two phases: all reads, then all writes.
		var transferIn *asm.Inst
		taken := false
		ctx := &execCtx{}
		for _, in := range word {
			tk, err := s.execute(in, ctx)
			if err != nil {
				return err
			}
			if in.Tmpl.Transfers() {
				if tk {
					if transferIn != nil {
						return fmt.Errorf("sim: two control transfers in one word")
					}
					transferIn = in
					taken = true
				}
			}
		}
		for _, w := range ctx.memWrites {
			s.mem.write(w.addr, w.size, w.bits)
		}
		for _, w := range ctx.latchWrites {
			s.latches[w.set] = w.bits
			s.setLatchReady(w.set, t+int64(w.in.Tmpl.Latency))
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
		if taken {
			if pendActive {
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
				if target == haltPC {
					s.cycle = t + 1
					s.stats.Cycles = s.cycle
					return nil
				}
				pc = target
				s.cycle = t + 1
				continue
			}
			pendActive, pendTarget, pendSlots = true, target, slots
		} else if pendActive {
			pendSlots -= len(word)
			if pendSlots <= 0 {
				pendActive = false
				if pendTarget == haltPC {
					s.cycle = t + 1
					s.stats.Cycles = s.cycle
					return nil
				}
				pc = pendTarget
				s.cycle = t + 1
				continue
			}
		}

		pc = nextPC
		s.cycle = t + 1
	}
}

func (s *Sim) busyAt(c int64) mach.ResSet {
	idx := c - s.busyBase
	if idx < 0 || idx >= int64(len(s.busy)) {
		return 0
	}
	return s.busy[idx]
}

func (s *Sim) reserve(c int64, rs mach.ResSet) {
	// Slide the window forward lazily.
	if len(s.busy) == 0 {
		s.busyBase = c
	}
	for c-s.busyBase >= int64(len(s.busy)) {
		s.busy = append(s.busy, 0)
	}
	if c >= s.busyBase {
		s.busy[c-s.busyBase] |= rs
	}
	// Trim entries far in the past to bound memory.
	if int64(len(s.busy)) > 4096 {
		drop := int64(len(s.busy)) - 2048
		s.busy = append(s.busy[:0], s.busy[drop:]...)
		s.busyBase += drop
	}
}

func (s *Sim) setLatchReady(set *mach.RegSet, when int64) {
	if s.latchReady == nil {
		s.latchReady = map[*mach.RegSet]int64{}
	}
	if when > s.latchReady[set] {
		s.latchReady[set] = when
	}
}
