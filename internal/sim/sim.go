// Package sim is Marion's execution substrate: a machine-description-
// driven simulator that both EXECUTES compiled programs (using the same
// instruction semantics trees the selector matches on) and TIMES them
// with a scoreboard model derived from the same resource vectors and
// latencies the scheduler plans with — plus a direct-mapped cache, the
// one effect the paper's schedulers do not model (§5, Table 4).
package sim

import (
	"fmt"
	"math"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// CacheConfig describes the optional direct-mapped data cache.
type CacheConfig struct {
	Enable      bool
	Lines       int // number of lines (power of two)
	LineSize    int // bytes per line (power of two)
	MissPenalty int // extra cycles added to a missing load
}

// DefaultCache resembles a small late-80s board-level data cache.
func DefaultCache() CacheConfig {
	return CacheConfig{Enable: true, Lines: 256, LineSize: 16, MissPenalty: 6}
}

const (
	// maxCycles aborts a run that outlives any real kernel (an
	// infinite loop in generated code).
	maxCycles = 4_000_000_000
	// stackTop is the initial stack (and frame) pointer.
	stackTop = 0x400000
)

// Options configure a run.
type Options struct {
	Cache CacheConfig
	// Trace, when set, receives one line per issued instruction.
	Trace func(format string, args ...interface{})
}

// Stats is the outcome of a run.
type Stats struct {
	Cycles      int64
	Instrs      int64 // instructions executed (including nops)
	Words       int64 // instruction words issued
	LoadMisses  int64
	Loads       int64
	BlockCounts map[*asm.Block]int64
	// Ret is the raw result register bits at halt.
	RetI int64
	RetF float64
}

const haltPC = 0xffffffff

// Sim is a loaded program ready to run.
type Sim struct {
	prog *asm.Program
	m    *mach.Machine
	opts Options

	// Flattened code: per function, the instruction list with block
	// boundaries; a PC is funcIdx<<20 | instIdx.
	code       [][]*asm.Inst
	blockAt    []map[int]*asm.Block // instIdx -> block starting there
	blockStart []map[*asm.Block]int
	funcIdx    map[string]int

	mem   *memory
	cache *cache

	regs     []uint64
	regReady []int64
	// producer tracks the last writer of each register for %aux-aware
	// operand-ready computation.
	producer      []*asm.Inst
	producerCycle []int64

	latches    map[*mach.RegSet]uint64 // temporal registers
	latchReady map[*mach.RegSet]int64

	table mach.ResTable // structural hazards; its current cycle is cycle
	cycle int64

	stats Stats
	// err refuses every Run of a program New could not load.
	err error
}

// New loads a program into a fresh simulator.
func New(prog *asm.Program, opts Options) *Sim {
	m := prog.Machine
	s := &Sim{
		prog: prog, m: m, opts: opts,
		funcIdx:       map[string]int{},
		mem:           newMemory(),
		regs:          make([]uint64, m.NumPhys),
		regReady:      make([]int64, m.NumPhys),
		producer:      make([]*asm.Inst, m.NumPhys),
		producerCycle: make([]int64, m.NumPhys),
		latches:       map[*mach.RegSet]uint64{},
	}
	if opts.Cache.Enable {
		s.cache = newCache(opts.Cache)
	}
	for i, f := range prog.Funcs {
		s.funcIdx[f.Name] = i
		if f.Text != nil && s.err == nil {
			s.err = fmt.Errorf("sim: function %q is printed text only (a cache hit); compile without a cache to simulate it", f.Name)
		}
		var insts []*asm.Inst
		at := map[int]*asm.Block{}
		starts := map[*asm.Block]int{}
		for _, b := range f.Blocks {
			at[len(insts)] = b
			starts[b] = len(insts)
			insts = append(insts, b.Insts...)
		}
		s.code = append(s.code, insts)
		s.blockAt = append(s.blockAt, at)
		s.blockStart = append(s.blockStart, starts)
	}
	// Initialize globals.
	for _, g := range prog.Globals {
		addr := uint32(g.Offset)
		esz := g.Type.Size()
		for i, v := range g.InitI {
			s.mem.write(addr+uint32(i*esz), esz, uint64(v))
		}
		for i, v := range g.InitF {
			if g.Type == ir.F32 {
				s.mem.write(addr+uint32(i*4), 4, uint64(math.Float32bits(float32(v))))
			} else {
				s.mem.write(addr+uint32(i*8), 8, math.Float64bits(v))
			}
		}
	}
	return s
}

// setReg writes a register, honoring overlap aliases and hard wiring.
func (s *Sim) setReg(p mach.PhysID, bits uint64) {
	if _, hard := s.m.IsHard(p); hard {
		return
	}
	ref := s.m.PhysRef(p)
	al := s.m.Aliases(p)
	if ref.Set.Size == 8 && len(al) >= 3 {
		// Canonical storage lives in the overlapping narrow registers.
		s.regs[al[1]] = bits & 0xffffffff
		s.regs[al[2]] = bits >> 32
		return
	}
	if ref.Set.Size == 8 {
		s.regs[p] = bits
		return
	}
	s.regs[p] = bits & 0xffffffff
}

// getReg reads a register, honoring aliases and hard wiring.
func (s *Sim) getReg(p mach.PhysID) uint64 {
	if v, hard := s.m.IsHard(p); hard {
		return uint64(v)
	}
	ref := s.m.PhysRef(p)
	al := s.m.Aliases(p)
	if ref.Set.Size == 8 && len(al) >= 3 {
		return s.regs[al[1]] | s.regs[al[2]]<<32
	}
	return s.regs[p]
}

func (s *Sim) setReady(p mach.PhysID, when int64, in *asm.Inst) {
	for _, a := range s.m.Aliases(p) {
		if when > s.regReady[a] {
			s.regReady[a] = when
		}
		s.producer[a] = in
		s.producerCycle[a] = s.cycle
	}
}

// Value is a typed runtime value for function arguments and results.
type Value struct {
	I     int64
	F     float64
	Float bool
}

// Int returns an integer argument value.
func Int(v int64) Value { return Value{I: v} }

// Float64 returns a double argument value.
func Float64(v float64) Value { return Value{F: v, Float: true} }

// Run executes the named function with the given arguments and returns
// run statistics (including the result register contents).
func (s *Sim) Run(fname string, args ...Value) (*Stats, error) {
	if s.err != nil {
		return nil, s.err
	}
	fi, ok := s.funcIdx[fname]
	if !ok {
		return nil, fmt.Errorf("sim: function %q not in program", fname)
	}
	s.stats = Stats{BlockCounts: map[*asm.Block]int64{}}
	// Each Run is an independent timing measurement: reset the scoreboard
	// (memory and cache state persist deliberately, so an init call can
	// prepare data for a measured kernel call).
	s.cycle = 0
	window := 0
	for _, in := range s.m.Instrs {
		window = max(window, len(in.ResVec))
	}
	s.table.Reset(window)
	clear(s.regReady)
	clear(s.producer)
	clear(s.producerCycle)
	s.latchReady = map[*mach.RegSet]int64{}

	// CWVM runtime setup: stack pointer, return address sentinel,
	// argument registers.
	s.setReg(s.m.Cwvm.SP.Phys(), stackTop)
	s.setReg(s.m.Cwvm.FP.Phys(), stackTop)
	s.setReg(s.m.Cwvm.RetAddr.Phys(), haltPC)
	types := make([]ir.Type, len(args))
	for i, a := range args {
		if a.Float {
			types[i] = ir.F64
		} else {
			types[i] = ir.I32
		}
	}
	for i, loc := range s.m.Cwvm.AssignArgs(types) {
		a := args[i]
		if loc.InReg {
			if a.Float {
				s.setReg(loc.Ref.Phys(), math.Float64bits(a.F))
			} else {
				s.setReg(loc.Ref.Phys(), uint64(a.I))
			}
			continue
		}
		// Stack argument: the callee reads it at fp+off, and its frame
		// pointer equals our initial stack pointer.
		if a.Float {
			s.mem.write(stackTop+uint32(loc.StackOff), 8, math.Float64bits(a.F))
		} else {
			s.mem.write(stackTop+uint32(loc.StackOff), 4, uint64(uint32(a.I)))
		}
	}

	if err := s.exec(fi); err != nil {
		return nil, err
	}

	// Result registers.
	if ref, ok := s.m.Cwvm.ResultFor(ir.I32); ok {
		s.stats.RetI = int64(int32(s.getReg(ref.Phys())))
	}
	if ref, ok := s.m.Cwvm.ResultFor(ir.F64); ok {
		s.stats.RetF = math.Float64frombits(s.getReg(ref.Phys()))
	}
	st := s.stats
	return &st, nil
}

func pcOf(f, i int) uint32 { return uint32(f)<<20 | uint32(i) }
func pcFunc(pc uint32) int { return int(pc >> 20) }
func pcInst(pc uint32) int { return int(pc & 0xfffff) }
