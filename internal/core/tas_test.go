package core

import (
	"sync"
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

func TestReadableTASSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	r := NewReadableTAS(w, "rt")
	th := sim.SoloThread(0)
	if got := r.Read(th); got != 0 {
		t.Fatalf("fresh Read = %d", got)
	}
	if got := r.TestAndSet(th); got != 0 {
		t.Fatalf("first TestAndSet = %d, want 0", got)
	}
	if got := r.Read(th); got != 1 {
		t.Fatalf("Read = %d, want 1", got)
	}
	if got := r.TestAndSet(sim.SoloThread(1)); got != 1 {
		t.Fatalf("second TestAndSet = %d, want 1", got)
	}
}

// E-T5: Theorem 5 — strong linearizability on every interleaving. This is
// the construction whose losing test&set operations are linearized at
// ANOTHER process's step (the first write of 1 to state), so it exercises
// the group-linearization capability of the checker.
func TestReadableTASStrongLinTwoSettersOneReader(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		r := NewReadableTAS(w, "rt")
		return []sim.Program{
			{opTAS(r)},
			{opTAS(r)},
			{opTASRead(r), opTASRead(r)},
		}
	}
	verifySL(t, 3, setup, spec.ReadableTAS{})
}

func TestReadableTASStrongLinSetterReaderPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		r := NewReadableTAS(w, "rt")
		return []sim.Program{
			{opTASRead(r), opTAS(r), opTASRead(r)},
			{opTASRead(r), opTAS(r), opTASRead(r)},
		}
	}
	verifySL(t, 2, setup, spec.ReadableTAS{})
}

func TestReadableTASRealWorldStress(t *testing.T) {
	const procs = 8
	w := prim.NewRealWorld()
	r := NewReadableTAS(w, "rt")
	var wg sync.WaitGroup
	wins := make([]int64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := prim.RealThread(p)
			wins[p] = r.TestAndSet(th)
			if got := r.Read(th); got != 1 {
				t.Errorf("Read after TestAndSet = %d", got)
			}
		}(p)
	}
	wg.Wait()
	zeros := 0
	for _, v := range wins {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		t.Fatalf("winners = %d, want 1", zeros)
	}
}

func TestMultiShotTASSequential(t *testing.T) {
	for name, build := range map[string]func() *MultiShotTAS{
		"atomic-bases": func() *MultiShotTAS {
			return NewMultiShotTASAtomic(sim.NewSoloWorld(), "ms")
		},
		"composed-cor7": func() *MultiShotTAS {
			return NewMultiShotTASFromPrimitives(sim.NewSoloWorld(), "ms", 2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			m := build()
			th := sim.SoloThread(0)
			if got := m.Read(th); got != 0 {
				t.Fatalf("fresh Read = %d", got)
			}
			m.Reset(th) // reset of a 0 object: no-op
			if got := m.TestAndSet(th); got != 0 {
				t.Fatalf("TestAndSet = %d, want 0", got)
			}
			if got := m.TestAndSet(th); got != 1 {
				t.Fatalf("TestAndSet = %d, want 1", got)
			}
			m.Reset(th)
			if got := m.Read(th); got != 0 {
				t.Fatalf("Read after Reset = %d, want 0", got)
			}
			if got := m.TestAndSet(sim.SoloThread(1)); got != 0 {
				t.Fatalf("TestAndSet after Reset = %d, want 0", got)
			}
		})
	}
}

// E-T6: Theorem 6 over atomic base objects (readable test&set + max
// register), exactly as the theorem states.
func TestMultiShotTASStrongLinAtomicBases(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMultiShotTASAtomic(w, "ms")
		return []sim.Program{
			{opTAS(m), opTAS(m)},
			{opReset(m)},
			{opTASRead(m)},
		}
	}
	verifySL(t, 3, setup, spec.MultiShotTAS{})
}

func TestMultiShotTASStrongLinTwoProcDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	// A deeper 2-process configuration spanning two epochs.
	setup := func(w *sim.World) []sim.Program {
		m := NewMultiShotTASAtomic(w, "ms")
		return []sim.Program{
			{opTAS(m), opReset(m), opTAS(m)},
			{opTASRead(m), opReset(m)},
		}
	}
	verifySL(t, 2, setup, spec.MultiShotTAS{})
}

func TestMultiShotTASStrongLinResetRace(t *testing.T) {
	// Two resets racing with a test&set across an epoch switch.
	setup := func(w *sim.World) []sim.Program {
		m := NewMultiShotTASAtomic(w, "ms")
		return []sim.Program{
			{opTAS(m), opReset(m)},
			{opReset(m), opTAS(m)},
		}
	}
	verifySL(t, 2, setup, spec.MultiShotTAS{})
}

// E-T6/Cor 7: the full composition over Theorem 1's max register and
// Theorem 5's readable test&sets (base objects: fetch&add + test&set only).
func TestMultiShotTASStrongLinComposedCor7(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMultiShotTASFromPrimitives(w, "ms", 2)
		return []sim.Program{
			{opTAS(m), opReset(m)},
			{opTASRead(m), opTAS(m)},
		}
	}
	verifySL(t, 2, setup, spec.MultiShotTAS{})
}
