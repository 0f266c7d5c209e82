package core

import (
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

func TestFASnapshotSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 3)
	if got := spec.RespVec(s.Scan(sim.SoloThread(0))); got != "[0 0 0]" {
		t.Fatalf("initial scan = %s", got)
	}
	s.Update(sim.SoloThread(1), 7)
	s.Update(sim.SoloThread(0), 3)
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[3 7 0]" {
		t.Fatalf("scan = %s", got)
	}
	// Overwrite with a smaller value (exercises negAdj).
	s.Update(sim.SoloThread(1), 1)
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[3 1 0]" {
		t.Fatalf("scan = %s", got)
	}
	// Same-value update (fetch&add(0) path).
	s.Update(sim.SoloThread(1), 1)
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[3 1 0]" {
		t.Fatalf("scan = %s", got)
	}
	// Update to zero clears the lane.
	s.Update(sim.SoloThread(0), 0)
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[0 1 0]" {
		t.Fatalf("scan = %s", got)
	}
}

func TestFASnapshotRejectsNegative(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative update did not panic")
		}
	}()
	s.Update(sim.SoloThread(0), -2)
}

// E-T2: Theorem 2 — strong linearizability on every interleaving.
func TestFASnapshotStrongLinTwoUpdatersOneScanner(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 3)
		return []sim.Program{
			{opUpdate(s, 0, 1)},
			{opUpdate(s, 1, 2)},
			{opScan(s), opScan(s)},
		}
	}
	verifySL(t, 3, setup, spec.Snapshot{})
}

func TestFASnapshotStrongLinOverwrites(t *testing.T) {
	// The same component written twice, concurrent with scans: exercises
	// posAdj/negAdj deltas under contention.
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2)
		return []sim.Program{
			{opUpdate(s, 0, 3), opUpdate(s, 0, 1)},
			{opScan(s), opScan(s)},
		}
	}
	verifySL(t, 2, setup, spec.Snapshot{})
}

func TestFASnapshotStrongLinSameValueUpdate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2)
		return []sim.Program{
			{opUpdate(s, 0, 2), opUpdate(s, 0, 2)},
			{opScan(s), opScan(s)},
		}
	}
	verifySL(t, 2, setup, spec.Snapshot{})
}

// TestWideUpdateUnchangedValueAllocFree: the wide Update compares the new
// value against a cached int64 (no big.NewInt per call), so re-writing the
// same value — the fetch&add(0) fast path — allocates nothing. Small changed
// values go through the interleave.SmallInt cache, so they stay cheap too.
func TestWideUpdateUnchangedValueAllocFree(t *testing.T) {
	w := prim.NewRealWorld()
	s := NewFASnapshot(w, "snap", 2)
	th := prim.RealThread(0)
	s.Update(th, 5)
	if allocs := testing.AllocsPerRun(200, func() { s.Update(th, 5) }); allocs != 0 {
		t.Fatalf("unchanged-value wide Update allocates %.1f per op, want 0", allocs)
	}
}

// TestWideScanIntoAllocFree: the wide ScanInto decodes the shared word
// straight into the caller's view (interleave.Codec.DecodeInto), so a scan of
// an 8-lane snapshot holding multi-word values allocates nothing.
func TestWideScanIntoAllocFree(t *testing.T) {
	const n = 8
	s := NewFASnapshot(prim.NewRealWorld(), "snap", n)
	for i := 0; i < n; i++ {
		s.Update(prim.RealThread(i), 1000+int64(i))
	}
	th := prim.RealThread(0)
	view := make([]int64, n)
	if allocs := testing.AllocsPerRun(200, func() { s.ScanInto(th, view) }); allocs != 0 {
		t.Fatalf("wide ScanInto allocates %.1f per op, want 0", allocs)
	}
	for i, v := range view {
		if v != 1000+int64(i) {
			t.Fatalf("view = %v, want component i = 1000+i", view)
		}
	}
}

func TestFASnapshotWidth(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 4)
	th := sim.SoloThread(3)
	s.Update(th, 1<<20)
	// Binary lane encoding: value 2^20 needs 21 lane bits, spread over 4
	// lanes → roughly 21*4 bits.
	width := s.Width(th)
	if width < 80 || width > 88 {
		t.Fatalf("width = %d, want ≈ 84", width)
	}
}
