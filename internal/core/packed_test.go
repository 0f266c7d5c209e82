package core

import (
	"reflect"
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// The packed cores are the bounded machine-word variants of FACounter,
// FAMaxRegister and FAGSet (one prim.FetchAddInt register instead of the wide
// fetch&add). They are verified three ways: the SAME exhaustive
// strong-linearizability model checks as the wide cores (the packed register
// is one scheduler step, exactly like the wide one, so the configurations
// match), differential fuzzing against the wide cores as a single-threaded
// oracle, and randomized linearizability stress under real concurrency.

// --- constructor selection ---------------------------------------------------

func TestPackedSelectionAndFallback(t *testing.T) {
	w := sim.NewSoloWorld()
	if c := NewFACounter(w, "cp", WithCounterBound(1<<40)); !c.Packed() {
		t.Error("counter with representable bound did not pack")
	}
	if c := NewFACounter(w, "cw"); c.Packed() {
		t.Error("unbounded counter packed")
	}
	if c := NewFACounter(w, "cw2", WithCounterBound(maxPackedCount+1)); c.Packed() {
		t.Error("counter with over-capacity bound did not fall back to wide")
	}
	// 2 lanes x (30+1) bits = 62 <= 63: packs. 2 x (31+1) = 64: falls back.
	if m := NewFAMaxRegister(w, "mp", 2, WithMaxRegBound(30)); !m.Packed() {
		t.Error("maxreg with fitting bound did not pack")
	}
	if m := NewFAMaxRegister(w, "mw", 2, WithMaxRegBound(31)); m.Packed() {
		t.Error("maxreg with unfitting bound did not fall back to wide")
	}
	if m := NewFAMaxRegister(w, "mw2", 2); m.Packed() {
		t.Error("unbounded maxreg packed")
	}
	if s := NewFAGSet(w, "sp", 3, WithGSetBound(20)); !s.Packed() {
		t.Error("gset with fitting bound did not pack")
	}
	if s := NewFAGSet(w, "sw", 3, WithGSetBound(21)); s.Packed() {
		t.Error("gset with unfitting bound did not fall back to wide")
	}
	// Bounds past the 63-bit lane budget must fall back even where an int
	// conversion would truncate (32-bit platforms).
	if m := NewFAMaxRegister(w, "mhuge", 1, WithMaxRegBound(1<<32)); m.Packed() {
		t.Error("maxreg with huge bound did not fall back to wide")
	}
	if s := NewFAGSet(w, "shuge", 1, WithGSetBound(1<<32)); s.Packed() {
		t.Error("gset with huge bound did not fall back to wide")
	}
}

// TestPackedFallbackStillWorks: a bound too wide to pack must leave a fully
// functional wide object (with the bound still declared and enforced).
func TestPackedFallbackStillWorks(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "m", 4, WithMaxRegBound(1<<20))
	if m.Packed() {
		t.Fatal("4 lanes x 2^20 bound cannot pack")
	}
	th := sim.SoloThread(1)
	m.WriteMax(th, 100000)
	if got := m.ReadMax(th); got != 100000 {
		t.Fatalf("wide-fallback ReadMax = %d, want 100000", got)
	}
}

// --- sequential behaviour ----------------------------------------------------

func TestPackedCounterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewFACounter(w, "c", WithCounterBound(1000))
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

func TestPackedMaxRegisterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "m", 3, WithMaxRegBound(10)) // 3 x 11 = 33 bits
	m.WriteMax(sim.SoloThread(0), 4)
	m.WriteMax(sim.SoloThread(1), 7)
	m.WriteMax(sim.SoloThread(2), 2)
	m.WriteMax(sim.SoloThread(1), 3) // no-op: smaller than lane max
	if got := m.ReadMax(sim.SoloThread(1)); got != 7 {
		t.Fatalf("ReadMax = %d, want 7", got)
	}
	if width := m.Width(sim.SoloThread(0)); width < 1 || width > 33 {
		t.Fatalf("packed Width = %d, want within (0, 33]", width)
	}
}

func TestPackedGSetSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFAGSet(w, "s", 2, WithGSetBound(15)) // 2 x 16 = 32 bits
	th := sim.SoloThread(1)
	if s.Has(th, 3) {
		t.Fatal("Has(3) on empty set")
	}
	s.Add(th, 3)
	s.Add(th, 0)
	s.Add(th, 3) // duplicate: exercises the once-bit fetch&add(0) path
	s.Add(sim.SoloThread(0), 3)
	if !s.Has(th, 3) || !s.Has(th, 0) || s.Has(th, 1) || s.Has(th, 99) {
		t.Fatal("membership after adds is wrong")
	}
	if got := s.Elems(th); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Elems = %v, want [0 3]", got)
	}
}

// --- bound enforcement -------------------------------------------------------

func TestPackedMaxRegisterRejectsOverBound(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "m", 2, WithMaxRegBound(10))
	defer func() {
		if recover() == nil {
			t.Fatal("WriteMax beyond the packed bound did not panic")
		}
	}()
	m.WriteMax(sim.SoloThread(0), 11)
}

func TestPackedGSetRejectsOverBound(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFAGSet(w, "s", 2, WithGSetBound(10))
	defer func() {
		if recover() == nil {
			t.Fatal("Add beyond the packed bound did not panic")
		}
	}()
	s.Add(sim.SoloThread(0), 11)
}

// TestWideFallbackBoundEnforced: the declared bound must be enforced even
// when the encoding falls back to the wide register, so that a sharded
// object whose shards mix packed and wide engines behaves uniformly.
func TestWideFallbackBoundEnforced(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "m", 2, WithMaxRegBound(31)) // 2 x 32 = 64: wide
	if m.Packed() {
		t.Fatal("config must fall back to wide")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wide-fallback WriteMax beyond the bound did not panic")
			}
		}()
		m.WriteMax(sim.SoloThread(0), 32)
	}()
	s := NewFAGSet(w, "s", 3, WithGSetBound(21)) // 3 x 22 = 66: wide
	if s.Packed() {
		t.Fatal("config must fall back to wide")
	}
	// Out-of-domain queries are misses, not panics, on both engines — even
	// for an x whose wide bit index would overflow int without the bound
	// check.
	if s.Has(sim.SoloThread(0), 22) || s.Has(sim.SoloThread(0), 1<<62) {
		t.Error("wide-fallback Has beyond the bound must be false")
	}
	defer func() {
		if recover() == nil {
			t.Error("wide-fallback Add beyond the bound did not panic")
		}
	}()
	s.Add(sim.SoloThread(0), 22)
}

func TestPackedCounterOverflowPanics(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewFACounter(w, "c", WithCounterBound(10))
	th := sim.SoloThread(0)
	c.Add(th, maxPackedCount) // fills the packed capacity exactly
	defer func() {
		if recover() == nil {
			t.Fatal("Inc past the packed capacity did not panic")
		}
	}()
	c.Inc(th)
}

// --- exhaustive strong-linearizability model checks --------------------------
//
// Same configurations as the wide cores' checks (TestFACounterStrongLin,
// TestFAMaxRegisterStrongLin*, TestFAGSetStrongLin*): the packed register is
// still one scheduler step per operation.

func TestPackedCounterStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		c := NewFACounter(w, "c", WithCounterBound(100))
		return []sim.Program{
			{opCtrInc(c)},
			{opCtrInc(c)},
			{opCtrRead(c), opCtrRead(c)},
		}
	}
	verifySL(t, 3, setup, spec.MonotonicCounter{})
}

func TestPackedMaxRegisterStrongLinTwoWritersOneReader(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 3, WithMaxRegBound(5)) // 3 x 6 = 18 bits
		return []sim.Program{
			{opWriteMax(m, 2)},
			{opWriteMax(m, 1)},
			{opReadMax(m), opReadMax(m)},
		}
	}
	v := verifySL(t, 3, setup, spec.MaxRegister{})
	if v.Leaves == 0 {
		t.Fatal("no executions explored")
	}
}

func TestPackedMaxRegisterStrongLinWriteReadMix(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 2, WithMaxRegBound(5))
		return []sim.Program{
			{opWriteMax(m, 1), opReadMax(m)},
			{opWriteMax(m, 2), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

func TestPackedMaxRegisterStrongLinNoopWrites(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 2, WithMaxRegBound(5))
		return []sim.Program{
			{opWriteMax(m, 3), opWriteMax(m, 1)},
			{opReadMax(m), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

func TestPackedGSetStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFAGSet(w, "s", 3, WithGSetBound(5)) // 3 x 6 = 18 bits
		return []sim.Program{
			{opGSetAdd(s, 1)},
			{opGSetAdd(s, 2)},
			{opGSetHas(s, 1), opGSetHas(s, 2)},
		}
	}
	verifySL(t, 3, setup, spec.GSet{})
}

func TestPackedGSetStrongLinDuplicateAdds(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFAGSet(w, "s", 3, WithGSetBound(5))
		return []sim.Program{
			{opGSetAdd(s, 1), opGSetAdd(s, 1)},
			{opGSetAdd(s, 1)},
			{opGSetHas(s, 1)},
		}
	}
	verifySL(t, 3, setup, spec.GSet{})
}

// The linearization-point certificates (every operation marks its single
// fetch&add) must also verify on the packed engines.

func TestPackedCounterCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		c := NewFACounter(w, "c", WithCounterBound(100))
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

func TestPackedGSetCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFAGSet(w, "s", 2, WithGSetBound(5))
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

// --- differential fuzz: packed vs wide, single-threaded oracle ---------------
//
// The wide cores are the reference; on any op sequence that stays inside the
// packed bound, the packed cores must produce identical responses. The fuzz
// corpus runs as ordinary unit tests; `go test -fuzz` explores further.

func FuzzPackedVsWideCounter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 2, 2, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := sim.NewSoloWorld()
		packed := NewFACounter(w, "p", WithCounterBound(1<<40))
		wide := NewFACounter(w, "w")
		th := sim.SoloThread(0)
		for _, b := range data {
			switch b % 3 {
			case 0:
				packed.Inc(th)
				wide.Inc(th)
			case 1:
				k := int64(b / 3 % 16)
				packed.Add(th, k)
				wide.Add(th, k)
			case 2:
				if p, v := packed.Read(th), wide.Read(th); p != v {
					t.Fatalf("packed Read = %d, wide Read = %d", p, v)
				}
			}
		}
		if p, v := packed.Read(th), wide.Read(th); p != v {
			t.Fatalf("final packed Read = %d, wide Read = %d", p, v)
		}
	})
}

func FuzzPackedVsWideMaxReg(f *testing.F) {
	f.Add([]byte{5, 17, 33, 2, 250, 9})
	f.Add([]byte{0, 0, 255, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lanes, bound = 3, 6 // 3 x 7 = 21 bits: packs
		w := sim.NewSoloWorld()
		packed := NewFAMaxRegister(w, "p", lanes, WithMaxRegBound(bound))
		wide := NewFAMaxRegister(w, "w", lanes)
		if !packed.Packed() {
			t.Fatal("fuzz config must pack")
		}
		for _, b := range data {
			th := sim.SoloThread(int(b) % lanes)
			if b%2 == 0 {
				v := int64(b / 2 % (bound + 1))
				packed.WriteMax(th, v)
				wide.WriteMax(th, v)
			} else if p, v := packed.ReadMax(th), wide.ReadMax(th); p != v {
				t.Fatalf("packed ReadMax = %d, wide ReadMax = %d", p, v)
			}
		}
		th := sim.SoloThread(0)
		if p, v := packed.ReadMax(th), wide.ReadMax(th); p != v {
			t.Fatalf("final packed ReadMax = %d, wide ReadMax = %d", p, v)
		}
	})
}

func FuzzPackedVsWideGSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 9, 9, 200, 100, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lanes, bound = 3, 6 // 3 x 7 = 21 bits: packs
		w := sim.NewSoloWorld()
		packed := NewFAGSet(w, "p", lanes, WithGSetBound(bound))
		wide := NewFAGSet(w, "w", lanes)
		if !packed.Packed() {
			t.Fatal("fuzz config must pack")
		}
		for _, b := range data {
			th := sim.SoloThread(int(b) % lanes)
			x := int64(b / 4 % (bound + 1))
			switch b % 3 {
			case 0:
				packed.Add(th, x)
				wide.Add(th, x)
			case 1:
				if p, v := packed.Has(th, x), wide.Has(th, x); p != v {
					t.Fatalf("packed Has(%d) = %v, wide Has(%d) = %v", x, p, x, v)
				}
			case 2:
				if p, v := packed.Elems(th), wide.Elems(th); !reflect.DeepEqual(p, v) {
					t.Fatalf("packed Elems = %v, wide Elems = %v", p, v)
				}
			}
		}
		th := sim.SoloThread(0)
		if p, v := packed.Elems(th), wide.Elems(th); !reflect.DeepEqual(p, v) {
			t.Fatalf("final packed Elems = %v, wide Elems = %v", p, v)
		}
	})
}

// --- packed snapshot (Theorem 2 on a machine word) ---------------------------

func TestPackedSnapshotSelectionAndFallback(t *testing.T) {
	w := sim.NewSoloWorld()
	// 3 lanes x FieldWidth(100)=7 bits = 21 <= 63: packs.
	if s := NewFASnapshot(w, "sp", 3, WithSnapshotBound(100)); !s.Packed() {
		t.Error("snapshot with fitting bound did not pack")
	}
	if s := NewFASnapshot(w, "sw", 3); s.Packed() {
		t.Error("unbounded snapshot packed")
	}
	// 4 lanes x FieldWidth(2^15)=16 bits = 64 > 63: past the single word —
	// that selects the multi-word engine, not the wide register.
	if s := NewFASnapshot(w, "sw2", 4, WithSnapshotBound(1<<15)); s.Packed() || !s.Multiword() {
		t.Error("snapshot with over-ceiling bound did not select the multi-word engine")
	}
	// 4 lanes x FieldWidth(2^15-1)=15 bits = 60 <= 63: packs.
	if s := NewFASnapshot(w, "sp2", 4, WithSnapshotBound(1<<15-1)); !s.Packed() {
		t.Error("snapshot with fitting 15-bit bound did not pack")
	}
	// Huge bounds stripe across words without truncation surprises.
	if s := NewFASnapshot(w, "shuge", 2, WithSnapshotBound(1<<40)); s.Packed() || !s.Multiword() {
		t.Error("snapshot with huge bound did not select the multi-word engine")
	}
	// A single lane packs up to the full 63-bit budget.
	if s := NewFASnapshot(w, "s1", 1, WithSnapshotBound(1<<62)); !s.Packed() {
		t.Error("1-lane snapshot with 63-bit bound did not pack")
	}
}

// TestPackedSnapshotSequential mirrors TestFASnapshotSequential on the packed
// engine: overwrites with smaller values exercise negative field deltas, the
// same-value path exercises XADD(0), and zeroing clears the field.
func TestPackedSnapshotSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(10)) // 3 x 4 = 12 bits
	if !s.Packed() {
		t.Fatal("config must pack")
	}
	if got := spec.RespVec(s.Scan(sim.SoloThread(0))); got != "[0 0 0]" {
		t.Fatalf("initial scan = %s", got)
	}
	s.Update(sim.SoloThread(1), 7)
	s.Update(sim.SoloThread(0), 3)
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[3 7 0]" {
		t.Fatalf("scan = %s", got)
	}
	s.Update(sim.SoloThread(1), 1) // smaller value: negative field delta
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[3 1 0]" {
		t.Fatalf("scan = %s", got)
	}
	s.Update(sim.SoloThread(1), 1) // same value: XADD(0) path
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[3 1 0]" {
		t.Fatalf("scan = %s", got)
	}
	s.Update(sim.SoloThread(0), 0) // zero clears the field
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[0 1 0]" {
		t.Fatalf("scan = %s", got)
	}
	if width := s.Width(sim.SoloThread(0)); width < 1 || width > 12 {
		t.Fatalf("packed Width = %d, want within (0, 12]", width)
	}
}

func TestPackedSnapshotRejectsOverBound(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(10))
	defer func() {
		if recover() == nil {
			t.Fatal("Update beyond the packed bound did not panic")
		}
	}()
	s.Update(sim.SoloThread(0), 11)
}

// TestSnapshotWideFallbackBoundEnforced: the declared bound must be enforced
// even when the encoding exceeds the single packed word — that
// configuration runs on the multi-word engine, uniformly with the other
// bounded cores.
func TestSnapshotWideFallbackBoundEnforced(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 4, WithSnapshotBound(1<<15)) // 4 x 16 = 64: 2 words
	if s.Packed() || !s.Multiword() {
		t.Fatal("config must select the multi-word engine")
	}
	th := sim.SoloThread(1)
	s.Update(th, 1<<15)
	if got := s.Scan(th)[1]; got != 1<<15 {
		t.Fatalf("wide-fallback component = %d, want %d", got, 1<<15)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wide-fallback Update beyond the bound did not panic")
		}
	}()
	s.Update(th, 1<<15+1)
}

func TestPackedSnapshotScanIntoLengthMismatch(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(5))
	defer func() {
		if recover() == nil {
			t.Fatal("ScanInto with a short view did not panic")
		}
	}()
	s.ScanInto(sim.SoloThread(0), make([]int64, 2))
}

// --- packed snapshot: exhaustive strong-linearizability model checks ---------
//
// Same configurations as the wide snapshot's checks (TestFASnapshotStrongLin*):
// the packed register is still one scheduler step per operation.

func TestPackedSnapshotStrongLinTwoUpdatersOneScanner(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(3)) // 3 x 2 = 6 bits
		return []sim.Program{
			{opUpdate(s, 0, 1)},
			{opUpdate(s, 1, 2)},
			{opScan(s), opScan(s)},
		}
	}
	verifySL(t, 3, setup, spec.Snapshot{})
}

func TestPackedSnapshotStrongLinOverwrites(t *testing.T) {
	// The same component written twice, concurrent with scans: exercises
	// positive and negative field deltas under contention.
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(3))
		return []sim.Program{
			{opUpdate(s, 0, 3), opUpdate(s, 0, 1)},
			{opScan(s), opScan(s)},
		}
	}
	verifySL(t, 2, setup, spec.Snapshot{})
}

func TestPackedSnapshotStrongLinSameValueUpdate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(3))
		return []sim.Program{
			{opUpdate(s, 0, 2), opUpdate(s, 0, 2)},
			{opScan(s), opScan(s)},
		}
	}
	verifySL(t, 2, setup, spec.Snapshot{})
}

// The linearization-point certificate (every operation marks its single
// fetch&add) must also verify on the packed snapshot engine.
func TestPackedSnapshotCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(3))
		return []sim.Program{
			{opUpdate(s, 0, 1), opScan(s)},
			{opUpdate(s, 1, 2), opScan(s)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.CheckLinPointCertificate(tree, spec.Snapshot{}); !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
}

// --- Algorithm 1 over the packed snapshot (Theorem 4, machine-word) ----------

// TestPackedSimpleCounterStrongLin: the full Theorem 4 composition with the
// packed snapshot substituted — graph-node references are published through
// the packed word's binary fields. 2 procs x 2 ops allocates references
// 1..4, so bound 7 (3-bit fields, 2 x 3 = 6 bits) covers the run. The
// second input is 3 procs x 1 op (inc, dec, read): references 1..3 fit 2-bit
// fields, so the whole composition's shared state is one XADD word.
func TestPackedSimpleCounterStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "ctr", SimpleCounter{}, 2, WithSnapshotBound(7))
		if !o.SnapshotPacked() {
			t.Fatal("config must pack")
		}
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodInc)), opExecute(o, spec.MkOp(spec.MethodRead))},
			{opExecute(o, spec.MkOp(spec.MethodInc)), opExecute(o, spec.MkOp(spec.MethodRead))},
		}
	}
	verifySL(t, 2, setup, spec.Counter{})
	threeProcs := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "ctr", SimpleCounter{}, 3, WithSnapshotBound(3))
		if !o.SnapshotPacked() {
			t.Fatal("config must pack")
		}
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodInc))},
			{opExecute(o, spec.MkOp(spec.MethodDec))},
			{opExecute(o, spec.MkOp(spec.MethodRead))},
		}
	}
	verifySL(t, 3, threeProcs, spec.Counter{})
}

func TestPackedSimpleGSetStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "set", SimpleGSet{}, 2, WithSnapshotBound(7))
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodAdd, 1)), opExecute(o, spec.MkOp(spec.MethodHas, 2))},
			{opExecute(o, spec.MkOp(spec.MethodAdd, 2)), opExecute(o, spec.MkOp(spec.MethodHas, 1))},
		}
	}
	verifySL(t, 2, setup, spec.GSet{})
}

func TestPackedSimpleLogicalClockStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "clk", SimpleLogicalClock{}, 2, WithSnapshotBound(7))
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodTick)), opExecute(o, spec.MkOp(spec.MethodRead))},
			{opExecute(o, spec.MkOp(spec.MethodTick))},
		}
	}
	verifySL(t, 2, setup, spec.LogicalClock{})
}

// TestSimpleObjectCapacity: a bounded simple object refuses the operation
// past its reference budget — TryExecute errors before any shared step,
// Execute panics, and in-budget responses are unaffected.
func TestSimpleObjectCapacity(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewLogicalClockFromFA(w, "clk", 1, WithSnapshotBound(3))
	th := sim.SoloThread(0)
	if !c.Packed() || c.Capacity() != 3 {
		t.Fatalf("packed = %v, capacity = %d; want packed with capacity 3", c.Packed(), c.Capacity())
	}
	for i := 0; i < 2; i++ {
		if err := c.TryTick(th); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	v, err := c.TryRead(th)
	if err != nil || v != 2 {
		t.Fatalf("TryRead = (%d, %v), want (2, nil)", v, err)
	}
	if err := c.TryTick(th); err != ErrCapacityExhausted {
		t.Fatalf("over-capacity TryTick error = %v, want ErrCapacityExhausted", err)
	}
	// Rejected attempts do not count against Used.
	if got := c.Used(); got != 3 {
		t.Fatalf("Used after exhaustion = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity Tick did not panic")
		}
	}()
	c.Tick(th)
}

// --- differential fuzz: packed snapshot vs the wide oracle -------------------

func FuzzPackedVsWideSnapshot(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lanes, bound = 3, 6 // FieldWidth(6)=3: 3 x 3 = 9 bits, packs
		w := sim.NewSoloWorld()
		packed := NewFASnapshot(w, "p", lanes, WithSnapshotBound(bound))
		wide := NewFASnapshot(w, "w", lanes)
		if !packed.Packed() {
			t.Fatal("fuzz config must pack")
		}
		for _, b := range data {
			th := sim.SoloThread(int(b) % lanes)
			if b%2 == 0 {
				v := int64(b/2) % (bound + 1)
				packed.Update(th, v)
				wide.Update(th, v)
			} else if p, v := packed.Scan(th), wide.Scan(th); !reflect.DeepEqual(p, v) {
				t.Fatalf("packed Scan = %v, wide Scan = %v", p, v)
			}
		}
		th := sim.SoloThread(0)
		if p, v := packed.Scan(th), wide.Scan(th); !reflect.DeepEqual(p, v) {
			t.Fatalf("final packed Scan = %v, wide Scan = %v", p, v)
		}
	})
}
