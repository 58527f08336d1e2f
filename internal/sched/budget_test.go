package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"marion/internal/asm"
	"marion/internal/budget"
)

// TestScheduleMaxCyclesCap pins the scheduler's step cap: a cycle loop
// that outruns MaxCycles + block size returns a typed budget error
// (with diagnostic state) instead of spinning.
func TestScheduleMaxCyclesCap(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	f := m.RegSet("f")
	fadd := m.InstrByLabel("fadd")
	// Five chained latency-2 fadds need ~8 cycles; MaxCycles=1 caps the
	// loop at 1 + 5 = 6.
	af, b := newBlock(
		asm.New(fadd, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
		asm.New(fadd, asm.Reg(2), asm.Reg(1), asm.Reg(1)),
		asm.New(fadd, asm.Reg(3), asm.Reg(2), asm.Reg(2)),
		asm.New(fadd, asm.Reg(4), asm.Reg(3), asm.Reg(3)),
		asm.New(fadd, asm.Reg(5), asm.Reg(4), asm.Reg(4)),
	)
	mkPseudos(af, f, 6)
	_, err := new(Scratch).Schedule(m, af, b, Options{MaxCycles: 1})
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("err = %v, want budget.ErrExceeded", err)
	}
	var le *budget.LimitError
	if !errors.As(err, &le) || le.Stage != "sched" || le.Steps != 1 {
		t.Errorf("limit error = %#v", le)
	}

	// The same block schedules fine under the default cap.
	af2, b2 := newBlock(
		asm.New(fadd, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
		asm.New(fadd, asm.Reg(2), asm.Reg(1), asm.Reg(1)),
		asm.New(fadd, asm.Reg(3), asm.Reg(2), asm.Reg(2)),
		asm.New(fadd, asm.Reg(4), asm.Reg(3), asm.Reg(3)),
		asm.New(fadd, asm.Reg(5), asm.Reg(4), asm.Reg(4)),
	)
	mkPseudos(af2, f, 6)
	mustSchedule(t, m, af2, b2, Options{})
}

// TestScheduleContextDeadline pins budget enforcement: an expired
// per-function deadline surfaces from the cycle loop as a typed budget
// error, while plain cancellation passes through untyped.
func TestScheduleContextDeadline(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	mkBlock := func() (*asm.Func, *asm.Block) {
		af, b := newBlock(
			asm.New(add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
			asm.New(add, asm.Reg(2), asm.Reg(1), asm.Reg(1)),
		)
		mkPseudos(af, r, 3)
		return af, b
	}

	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	af, b := mkBlock()
	_, err := new(Scratch).Schedule(m, af, b, Options{Context: expired})
	if !errors.Is(err, budget.ErrExceeded) {
		t.Errorf("deadline err = %v, want budget.ErrExceeded", err)
	}

	cancelled, stop := context.WithCancel(context.Background())
	stop()
	af2, b2 := mkBlock()
	_, err = new(Scratch).Schedule(m, af2, b2, Options{Context: cancelled})
	if !errors.Is(err, context.Canceled) || errors.Is(err, budget.ErrExceeded) {
		t.Errorf("cancel err = %v, want plain context.Canceled", err)
	}
}
