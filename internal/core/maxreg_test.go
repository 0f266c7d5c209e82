package core

import (
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

func TestFAMaxRegisterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "max", 2)
	th := sim.SoloThread(0)
	if got := m.ReadMax(th); got != 0 {
		t.Fatalf("initial ReadMax = %d", got)
	}
	m.WriteMax(th, 5)
	if got := m.ReadMax(th); got != 5 {
		t.Fatalf("ReadMax = %d, want 5", got)
	}
	m.WriteMax(th, 3) // no-op write
	if got := m.ReadMax(th); got != 5 {
		t.Fatalf("ReadMax after smaller write = %d, want 5", got)
	}
	m.WriteMax(th, 9)
	if got := m.ReadMax(th); got != 9 {
		t.Fatalf("ReadMax = %d, want 9", got)
	}
}

func TestFAMaxRegisterPerProcessLanes(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "max", 3)
	// Different processes write interleaved values; the max must win.
	m.WriteMax(sim.SoloThread(0), 4)
	m.WriteMax(sim.SoloThread(1), 7)
	m.WriteMax(sim.SoloThread(2), 2)
	if got := m.ReadMax(sim.SoloThread(1)); got != 7 {
		t.Fatalf("ReadMax = %d, want 7", got)
	}
}

func TestFAMaxRegisterRejectsNegative(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewFAMaxRegister(w, "max", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative WriteMax did not panic")
		}
	}()
	m.WriteMax(sim.SoloThread(0), -1)
}

// E-T1: Theorem 1 — the construction is strongly linearizable on every
// interleaving of the bounded configurations below.
func TestFAMaxRegisterStrongLinTwoWritersOneReader(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 3)
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

func TestFAMaxRegisterStrongLinWriteReadMix(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 2)
		return []sim.Program{
			{opWriteMax(m, 1), opReadMax(m)},
			{opWriteMax(m, 2), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

func TestFAMaxRegisterStrongLinNoopWrites(t *testing.T) {
	// Smaller-than-previous writes exercise the fetch&add(R,0) path.
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 2)
		return []sim.Program{
			{opWriteMax(m, 3), opWriteMax(m, 1)},
			{opReadMax(m), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

// withoutNoopFA drops the fetch&add(R, 0) that WriteMax performs when the
// value does not exceed the caller's previous write. The paper notes this
// fetch&add "is not needed for correctness, but it simplifies the
// linearization proof": without it a no-op WriteMax takes no shared step at
// all. It is the E-ABL1 ablation, and only tests build it.
func withoutNoopFA() MaxRegOption {
	return func(m *FAMaxRegister) { m.noopFA = false }
}

// E-ABL1: dropping the fetch&add(R,0) on no-op writes keeps the object
// correct — the paper notes the step is only there to fix linearization
// points. Both variants must pass on the same configuration.
func TestMaxRegisterAblationNoFA0(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "max", 2, withoutNoopFA())
		return []sim.Program{
			{opWriteMax(m, 3), opWriteMax(m, 1)},
			{opReadMax(m), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

func TestFAMaxRegisterWidthGrowth(t *testing.T) {
	// E-WIDTH: the unary interleaved representation costs n bits per unit of
	// value — writing K as process i of n makes R at least K*n bits wide.
	w := sim.NewSoloWorld()
	const n = 4
	m := NewFAMaxRegister(w, "max", n)
	th := sim.SoloThread(2)
	m.WriteMax(th, 100)
	width := m.Width(th)
	if width < 100*n-n || width > 100*n+n {
		t.Fatalf("width = %d bits, want ≈ %d", width, 100*n)
	}
}

// maxPerLane is the per-lane wide decode the O(1) decode replaced, kept as
// its oracle: a lane's value is the lane-local index of its highest set bit,
// and the register reads the largest lane value.
func maxPerLane(n int, word *big.Int) int64 {
	var top int64
	for i := 0; i < n; i++ {
		for pos := i; pos < word.BitLen(); pos += n {
			if k := int64((pos - i) / n); word.Bit(pos) == 1 && k > top {
				top = k
			}
		}
	}
	return top
}

// TestFAMaxRegisterDecodeMatchesPerLane: the O(1) wide decode against the
// per-lane oracle on 1-9 lanes — random raises up to 2000, tied lanes, the
// empty word, and hand-built words whose lanes are not unary prefixes.
func TestFAMaxRegisterDecodeMatchesPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	th := prim.RealThread(0)
	for n := 1; n <= 9; n++ {
		m := NewFAMaxRegister(prim.NewRealWorld(), "max", n)
		check := func(what string, word *big.Int) {
			t.Helper()
			if got, want := m.decode(word), maxPerLane(n, word); got != want {
				t.Fatalf("n=%d %s: decode = %d, per-lane %d (word %#x)", n, what, got, want, word)
			}
		}
		check("empty word", new(big.Int))
		var want int64
		for step := 0; step < 40; step++ {
			v := rng.Int63n(2001)
			m.WriteMax(prim.RealThread(rng.Intn(n)), v)
			want = max(want, v)
			check("random raises", m.r.FetchAdd(th, zero))
			if got := m.ReadMax(th); got != want {
				t.Fatalf("n=%d step %d: ReadMax = %d, want %d", n, step, got, want)
			}
		}

		tied := NewFAMaxRegister(prim.NewRealWorld(), "tied", n)
		for i := 0; i < n; i++ {
			tied.WriteMax(prim.RealThread(i), 777)
		}
		check("tied lanes", tied.r.FetchAdd(th, zero))
		if got := tied.ReadMax(th); got != 777 {
			t.Fatalf("n=%d tied lanes: ReadMax = %d, want 777", n, got)
		}

		for trial := 0; trial < 200; trial++ {
			word := new(big.Int)
			if trial%2 == 0 { // dense random bits
				word.Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(rng.Intn(64*n*4))))
			} else { // a few scattered bits
				for k := rng.Intn(4); k >= 0; k-- {
					word.SetBit(word, rng.Intn(64*n*4), 1)
				}
			}
			check("hand-built", word)
		}
	}
}

// TestFAMaxRegisterWideReadAllocFree: the wide ReadMax is one fetch&add(0)
// plus BitLen, so reading an 8-lane register holding values near 1000 — a
// ~8000-bit word — allocates nothing.
func TestFAMaxRegisterWideReadAllocFree(t *testing.T) {
	const n = 8
	m := NewFAMaxRegister(prim.NewRealWorld(), "max", n)
	for i := 0; i < n; i++ {
		m.WriteMax(prim.RealThread(i), 1000+int64(i))
	}
	th := prim.RealThread(0)
	if allocs := testing.AllocsPerRun(200, func() { m.ReadMax(th) }); allocs != 0 {
		t.Fatalf("wide ReadMax allocates %.1f per op, want 0", allocs)
	}
	if got := m.ReadMax(th); got != 1000+n-1 {
		t.Fatalf("ReadMax = %d, want %d", got, 1000+n-1)
	}
}

// TestWideReadsRaceRaisingWriters: wide ReadMax and wide ScanInto decode the
// real world's shared copy-on-write word in place, so they run here against
// writers that keep raising values; under -race any write a decode made to
// that shared word would be reported. Every reader also checks that its reads
// never go backwards and never exceed the largest value written.
func TestWideReadsRaceRaisingWriters(t *testing.T) {
	const writers, readers = 3, 2
	const n = writers + readers
	rounds := int64(2000)
	if testing.Short() {
		rounds = 500
	}
	w := prim.NewRealWorld()
	m := NewFAMaxRegister(w, "max", n)
	s := NewFASnapshot(w, "snap", n)
	var done atomic.Bool
	var wwg, rwg sync.WaitGroup
	for p := 0; p < writers; p++ {
		wwg.Add(1)
		go func(th prim.Thread) {
			defer wwg.Done()
			for v := int64(1); v <= rounds; v++ {
				m.WriteMax(th, v)
				s.Update(th, v)
			}
		}(prim.RealThread(p))
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(th prim.Thread) {
			defer rwg.Done()
			var last int64
			lastView, view := make([]int64, n), make([]int64, n)
			for reads := 0; !done.Load() || reads < 10; reads++ {
				v := m.ReadMax(th)
				if v < last || v > rounds {
					t.Errorf("reader %d: ReadMax = %d after %d (max written %d)", th.ID(), v, last, rounds)
					return
				}
				last = v
				s.ScanInto(th, view)
				for i := range view {
					if view[i] < lastView[i] || view[i] > rounds {
						t.Errorf("reader %d: scan %v after %v", th.ID(), view, lastView)
						return
					}
				}
				lastView, view = view, lastView
			}
		}(prim.RealThread(writers + r))
	}
	wwg.Wait()
	done.Store(true)
	rwg.Wait()
	if got := m.ReadMax(prim.RealThread(0)); got != rounds {
		t.Fatalf("final ReadMax = %d, want %d", got, rounds)
	}
}
