package core

import (
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// --- sim.Op builders for the shard-friendly cores ---------------------------

func opCtrInc(c *FACounter) sim.Op {
	return sim.Op{
		Name: "inc()",
		Spec: spec.MkOp(spec.MethodInc),
		Run: func(t prim.Thread) string {
			c.Inc(t)
			return spec.RespOK
		},
	}
}

func opCtrRead(c *FACounter) sim.Op {
	return sim.Op{
		Name: "read()",
		Spec: spec.MkOp(spec.MethodRead),
		Run:  func(t prim.Thread) string { return spec.RespInt(c.Read(t)) },
	}
}

func opGSetAdd(s *FAGSet, x int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodAdd, x).String(),
		Spec: spec.MkOp(spec.MethodAdd, x),
		Run: func(t prim.Thread) string {
			s.Add(t, x)
			return spec.RespOK
		},
	}
}

func opGSetHas(s *FAGSet, x int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodHas, x).String(),
		Spec: spec.MkOp(spec.MethodHas, x),
		Run: func(t prim.Thread) string {
			if s.Has(t, x) {
				return "1"
			}
			return "0"
		},
	}
}

// --- FACounter ---------------------------------------------------------------

func TestFACounterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewFACounter(w, "c")
	th := sim.SoloThread(0)
	if got := c.Read(th); got != 0 {
		t.Fatalf("initial value = %d, want 0", got)
	}
	c.Inc(th)
	c.Inc(th)
	c.Add(th, 5)
	if got := c.Read(th); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func TestFACounterRejectsNegativeDelta(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewFACounter(w, "c")
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(sim.SoloThread(0), -1)
}

func TestFACounterStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		c := NewFACounter(w, "c")
		return []sim.Program{
			{opCtrInc(c)},
			{opCtrInc(c)},
			{opCtrRead(c), opCtrRead(c)},
		}
	}
	verifySL(t, 3, setup, spec.MonotonicCounter{})
}

func TestFACounterCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		c := NewFACounter(w, "c")
		return []sim.Program{
			{opCtrInc(c), opCtrRead(c)},
			{opCtrInc(c), opCtrRead(c)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.CheckLinPointCertificate(tree, spec.MonotonicCounter{}); !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
}

// --- FAGSet ------------------------------------------------------------------

func TestFAGSetSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFAGSet(w, "s", 2)
	th := sim.SoloThread(1)
	if s.Has(th, 3) {
		t.Fatal("Has(3) on empty set")
	}
	s.Add(th, 3)
	s.Add(th, 0)
	s.Add(th, 3) // duplicate: exercises the once-bit fetch&add(0) path
	if !s.Has(th, 3) || !s.Has(th, 0) || s.Has(th, 1) {
		t.Fatal("membership after adds is wrong")
	}
	if got := s.Elems(th); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Elems = %v, want [0 3]", got)
	}
}

// elemsPerBit is the bit-at-a-time wide Elems decode, kept as the oracle for
// the word-level walk.
func elemsPerBit(n int, word *big.Int) []int64 {
	var out []int64
	for pos := 0; pos < word.BitLen(); pos++ {
		if word.Bit(pos) == 1 {
			x := int64(pos / n)
			if len(out) == 0 || out[len(out)-1] != x {
				out = append(out, x)
			}
		}
	}
	return out
}

// TestFAGSetWideElemsMatchesPerBit: the wide Elems' word-level walk agrees
// with the per-bit decode and with the set of added elements, on 1-9 lanes
// with elements spread over many big.Words and the same element added from
// several lanes.
func TestFAGSetWideElemsMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	th := sim.SoloThread(0)
	for n := 1; n <= 9; n++ {
		s := NewFAGSet(sim.NewSoloWorld(), "s", n)
		added := map[int64]bool{}
		for step := 0; step < 60; step++ {
			x := rng.Int63n(500)
			s.Add(sim.SoloThread(rng.Intn(n)), x)
			added[x] = true
			got := s.Elems(th)
			if want := elemsPerBit(n, s.r.FetchAdd(th, zero)); !slices.Equal(got, want) {
				t.Fatalf("n=%d step %d: Elems = %v, per-bit %v", n, step, got, want)
			}
			if want := slices.Sorted(maps.Keys(added)); !slices.Equal(got, want) {
				t.Fatalf("n=%d step %d: Elems = %v, added %v", n, step, got, want)
			}
		}
	}
}

func TestFAGSetRejectsNegativeElement(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFAGSet(w, "s", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	s.Add(sim.SoloThread(0), -1)
}

func TestFAGSetStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFAGSet(w, "s", 3)
		return []sim.Program{
			{opGSetAdd(s, 1)},
			{opGSetAdd(s, 2)},
			{opGSetHas(s, 1), opGSetHas(s, 2)},
		}
	}
	verifySL(t, 3, setup, spec.GSet{})
}

func TestFAGSetStrongLinDuplicateAdds(t *testing.T) {
	// Two processes add the same element; one re-adds it (the fetch&add(0)
	// no-op path must still be a correct linearization point).
	setup := func(w *sim.World) []sim.Program {
		s := NewFAGSet(w, "s", 3)
		return []sim.Program{
			{opGSetAdd(s, 1), opGSetAdd(s, 1)},
			{opGSetAdd(s, 1)},
			{opGSetHas(s, 1)},
		}
	}
	verifySL(t, 3, setup, spec.GSet{})
}

func TestFAGSetCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFAGSet(w, "s", 2)
		return []sim.Program{
			{opGSetAdd(s, 1), opGSetHas(s, 2)},
			{opGSetAdd(s, 2), opGSetHas(s, 1)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.CheckLinPointCertificate(tree, spec.GSet{}); !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
}
