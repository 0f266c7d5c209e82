package core

import (
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

func TestTASSetSequential(t *testing.T) {
	for name, build := range map[string]func() *TASSet{
		"atomic-fai": func() *TASSet { return NewTASSetAtomic(sim.NewSoloWorld(), "s") },
		"fa-fai":     func() *TASSet { return NewTASSet(sim.NewSoloWorld(), "s2", NewFAFetchInc(sim.NewSoloWorld(), "fi")) },
		"thm10-tas":  func() *TASSet { return NewTASSetFromTAS(sim.NewSoloWorld(), "s") },
	} {
		t.Run(name, func(t *testing.T) {
			s := build()
			th := sim.SoloThread(0)
			if got := s.Take(th); got != spec.RespEmpty {
				t.Fatalf("take on empty = %s", got)
			}
			s.Put(th, 7)
			s.Put(th, 9)
			got := map[string]bool{s.Take(th): true, s.Take(th): true}
			if !got["7"] || !got["9"] {
				t.Fatalf("takes returned %v, want {7,9}", got)
			}
			if got := s.Take(th); got != spec.RespEmpty {
				t.Fatalf("take after draining = %s", got)
			}
		})
	}
}

func TestTASSetRejectsNonPositiveItems(t *testing.T) {
	s := NewTASSetAtomic(sim.NewSoloWorld(), "s")
	defer func() {
		if recover() == nil {
			t.Fatal("Put(0) did not panic")
		}
	}()
	s.Put(sim.SoloThread(0), 0)
}

// E-T10: Theorem 10 / Algorithm 2 — strong linearizability on every
// interleaving. The empty-returning take is the delicate case: its
// linearization point is in its past once its return value is locally
// determined, so the checker must commit it eagerly while pending.
func TestTASSetStrongLinTakeEmptyRace(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewTASSetAtomic(w, "s")
		return []sim.Program{
			{opTake(s)},
			{opPut(s, 5)},
		}
	}
	verifySL(t, 2, setup, spec.TakeSet{})
}

func TestTASSetStrongLinTakeTakeRace(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	// Two takes racing over a single put: at most one may win the item, the
	// other must return it or empty consistently.
	setup := func(w *sim.World) []sim.Program {
		s := NewTASSetAtomic(w, "s")
		return []sim.Program{
			{opPut(s, 5), opTake(s)},
			{opTake(s)},
		}
	}
	verifySL(t, 2, setup, spec.TakeSet{})
}

func TestTASSetStrongLinTwoPutsOneTake(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewTASSetAtomic(w, "s")
		return []sim.Program{
			{opPut(s, 5), opTake(s)},
			{opPut(s, 6)},
		}
	}
	verifySL(t, 2, setup, spec.TakeSet{})
}

func TestTASSetStrongLinComposedThm10(t *testing.T) {
	// Full composition: set over Theorem 9's fetch&increment over Theorem
	// 5's readable test&sets — base objects are test&set and registers only.
	setup := func(w *sim.World) []sim.Program {
		s := NewTASSetFromTAS(w, "s")
		return []sim.Program{
			{opPut(s, 5)},
			{opTake(s)},
		}
	}
	verifySL(t, 2, setup, spec.TakeSet{})
}

func TestTASSetNoDuplicateTakes(t *testing.T) {
	// Every item is taken at most once even under heavy contention.
	const procs, items = 8, 40
	w := prim.NewRealWorld()
	s := NewTASSetAtomic(w, "s")
	th0 := prim.RealThread(0)
	for x := int64(1); x <= items; x++ {
		s.Put(th0, x)
	}
	results := make(chan string, procs*items)
	done := make(chan struct{})
	for p := 0; p < procs; p++ {
		go func(p int) {
			th := prim.RealThread(p)
			for {
				select {
				case <-done:
					return
				default:
				}
				r := s.Take(th)
				results <- r
				if r == spec.RespEmpty {
					return
				}
			}
		}(p)
	}
	taken := make(map[string]bool)
	emptyCount := 0
	for emptyCount < procs {
		r := <-results
		if r == spec.RespEmpty {
			emptyCount++
			continue
		}
		if taken[r] {
			close(done)
			t.Fatalf("item %s taken twice", r)
		}
		taken[r] = true
	}
	close(done)
	if len(taken) != items {
		t.Fatalf("took %d items, want %d", len(taken), items)
	}
}
