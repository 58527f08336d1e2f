package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseEmptyAndSpecs(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;", " , ; "} {
		set, err := Parse(spec)
		if err != nil || !set.Empty() {
			t.Errorf("Parse(%q) = %v, %v; want nil set", spec, set, err)
		}
	}

	set, err := Parse("select:panic@fn=3; sched:hang ,regalloc:err@fn=inner@all")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Faults) != 3 {
		t.Fatalf("faults = %d, want 3", len(set.Faults))
	}
	f := set.Faults[0]
	if f.Site != "select" || f.Mode != Panic || f.Fn != "3" || f.All {
		t.Errorf("fault 0 = %+v", f)
	}
	f = set.Faults[2]
	if f.Site != "regalloc" || f.Mode != Error || f.Fn != "inner" || !f.All {
		t.Errorf("fault 2 = %+v", f)
	}

	// String round-trips through Parse.
	again, err := Parse(set.String())
	if err != nil || len(again.Faults) != 3 {
		t.Errorf("round trip %q: %v, %v", set.String(), again, err)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"bogus:panic",       // unknown site
		"select:explode",    // unknown mode
		"select",            // no mode
		"select:err@p=0.5",  // unknown option
		"select:err@seed=7", // unknown option
		"select:err@wat=1",  // unknown option
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// The unknown-site message must name the catalogue.
	_, err := Parse("bogus:panic")
	for _, site := range Sites() {
		if !strings.Contains(err.Error(), site) {
			t.Errorf("error %q does not mention site %q", err, site)
		}
	}
}

func TestInjectorSelection(t *testing.T) {
	set, err := Parse("select:err@fn=inner")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Named function, primary attempt: fires.
	if err := New(set, ctx, "inner", 2, 0).Fire("select"); err == nil {
		t.Error("fault did not fire for matching function")
	} else {
		var ie *InjectedError
		if !errors.As(err, &ie) || ie.Site != "select" || ie.Fn != "inner" {
			t.Errorf("err = %#v", err)
		}
	}
	// Other function: silent.
	if err := New(set, ctx, "outer", 0, 0).Fire("select"); err != nil {
		t.Errorf("fault fired for non-matching function: %v", err)
	}
	// Other site: silent.
	if err := New(set, ctx, "inner", 2, 0).Fire("sched"); err != nil {
		t.Errorf("fault fired at wrong site: %v", err)
	}
	// Fallback attempt without @all: silent, so the ladder runs clean.
	if err := New(set, ctx, "inner", 2, 1).Fire("select"); err != nil {
		t.Errorf("fault fired on fallback attempt: %v", err)
	}

	// @fn by source-order index.
	byIndex, _ := Parse("select:err@fn=2")
	if err := New(byIndex, ctx, "whatever", 2, 0).Fire("select"); err == nil {
		t.Error("index-selected fault did not fire")
	}
	if err := New(byIndex, ctx, "whatever", 3, 0).Fire("select"); err != nil {
		t.Errorf("index-selected fault fired at wrong index: %v", err)
	}

	// @all fires on fallback attempts too.
	all, _ := Parse("select:err@all")
	if err := New(all, ctx, "f", 0, 3).Fire("select"); err == nil {
		t.Error("@all fault did not fire on attempt 3")
	}
}

func TestInjectorPanicMode(t *testing.T) {
	set, _ := Parse("xform:panic")
	in := New(set, context.Background(), "f", 0, 0)
	defer func() {
		v := recover()
		p, ok := v.(*InjectedPanic)
		if !ok || p.Site != "xform" || p.Fn != "f" {
			t.Errorf("recovered %#v", v)
		}
	}()
	in.Fire("xform")
	t.Error("panic-mode fault did not panic")
}

func TestInjectorHangMode(t *testing.T) {
	set, _ := Parse("sched:hang")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := New(set, ctx, "f", 0, 0).Fire("sched")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("hang fault returned %v, want wrapped deadline", err)
	}
	if !strings.Contains(err.Error(), "injected hang at sched") {
		t.Errorf("err = %v", err)
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Mode("select") != None {
		t.Error("nil injector has a mode")
	}
	if err := in.Fire("select"); err != nil {
		t.Errorf("nil injector fired: %v", err)
	}
	if New(nil, context.Background(), "f", 0, 0) != nil {
		t.Error("New(nil set) should be nil")
	}
}

func TestServeSiteAndMax(t *testing.T) {
	ctx := context.Background()

	// The serve site parses (it is server-level, not in the pipeline
	// catalogue) and round-trips with @max.
	set, err := Parse("serve:err@fn=r2000/rase@max=3")
	if err != nil {
		t.Fatal(err)
	}
	f := set.Faults[0]
	if f.Site != "serve" || f.Fn != "r2000/rase" || f.Max != 3 {
		t.Fatalf("fault = %+v", f)
	}
	again, err := Parse(set.String())
	if err != nil || again.Faults[0].Max != 3 {
		t.Fatalf("round trip %q: %+v, %v", set.String(), again, err)
	}

	// @max bounds the index: the first three fire, the fourth does not —
	// the deterministic breaker trip/recovery driver.
	for i := 0; i < 3; i++ {
		if err := New(set, ctx, "r2000/rase", i, 0).Fire("serve"); err == nil {
			t.Errorf("index %d did not fire", i)
		}
	}
	if err := New(set, ctx, "r2000/rase", 3, 0).Fire("serve"); err != nil {
		t.Errorf("index 3 fired past @max=3: %v", err)
	}
	// Other keys never fire.
	if err := New(set, ctx, "m88000/rase", 0, 0).Fire("serve"); err != nil {
		t.Errorf("wrong key fired: %v", err)
	}

	// The serve site stays out of the pipeline sweep axis.
	for _, s := range Sites() {
		if s == "serve" {
			t.Error("serve leaked into the pipeline site catalogue")
		}
	}
	if len(ServeSites()) == 0 {
		t.Error("no serve sites")
	}

	// Bad @max values are rejected.
	for _, spec := range []string{"serve:err@max=0", "serve:err@max=x"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}
