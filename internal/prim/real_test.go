package prim

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"
)

func TestRealRegister(t *testing.T) {
	w := NewRealWorld()
	r := w.Register("r", 7)
	th := RealThread(0)
	if got := r.Read(th); got != 7 {
		t.Fatalf("initial Read = %d, want 7", got)
	}
	r.Write(th, -3)
	if got := r.Read(th); got != -3 {
		t.Fatalf("Read after Write = %d, want -3", got)
	}
}

func TestRealTASSingleWinner(t *testing.T) {
	w := NewRealWorld()
	ts := w.TAS("ts")
	const procs = 8
	wins := make([]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			wins[p] = ts.TestAndSet(RealThread(p))
		}(p)
	}
	wg.Wait()
	zeros := 0
	for _, v := range wins {
		if v == 0 {
			zeros++
		} else if v != 1 {
			t.Fatalf("TestAndSet returned %d", v)
		}
	}
	if zeros != 1 {
		t.Fatalf("want exactly one winner, got %d", zeros)
	}
	if ts.Read(RealThread(0)) != 1 {
		t.Fatal("state not 1 after TestAndSet")
	}
}

func TestRealTASReadBeforeSet(t *testing.T) {
	w := NewRealWorld()
	ts := w.TAS("ts")
	if got := ts.Read(RealThread(0)); got != 0 {
		t.Fatalf("fresh TAS Read = %d, want 0", got)
	}
}

func TestRealFetchAddConcurrentSum(t *testing.T) {
	w := NewRealWorld()
	fa := w.FetchAdd("R")
	const procs, reps = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := RealThread(p)
			for i := 0; i < reps; i++ {
				fa.FetchAdd(th, big.NewInt(1))
			}
		}(p)
	}
	wg.Wait()
	got := fa.FetchAdd(RealThread(0), new(big.Int))
	if got.Int64() != procs*reps {
		t.Fatalf("sum = %v, want %d", got, procs*reps)
	}
}

func TestRealFetchAddReturnsPrevious(t *testing.T) {
	w := NewRealWorld()
	fa := w.FetchAdd("R")
	th := RealThread(0)
	if prev := fa.FetchAdd(th, big.NewInt(5)); prev.Sign() != 0 {
		t.Fatalf("first FetchAdd prev = %v, want 0", prev)
	}
	if prev := fa.FetchAdd(th, big.NewInt(-2)); prev.Int64() != 5 {
		t.Fatalf("second FetchAdd prev = %v, want 5", prev)
	}
	if cur := fa.FetchAdd(th, new(big.Int)); cur.Int64() != 3 {
		t.Fatalf("read = %v, want 3", cur)
	}
}

func TestRealFetchAddDoesNotAliasDelta(t *testing.T) {
	w := NewRealWorld()
	fa := w.FetchAdd("R")
	th := RealThread(0)
	delta := big.NewInt(4)
	fa.FetchAdd(th, delta)
	delta.SetInt64(1000) // mutating the caller's delta must not affect the register
	if cur := fa.FetchAdd(th, new(big.Int)); cur.Int64() != 4 {
		t.Fatalf("register state = %v, want 4", cur)
	}
}

// TestRealFetchAddReadIgnoresMutatorMutex pins the copy-on-write contract:
// fetch&add(0) is an atomic pointer load that never touches the mutex
// serialising mutators. The test holds the mutex and requires a concurrent
// read to complete anyway — under the pre-COW implementation this deadlocks.
func TestRealFetchAddReadIgnoresMutatorMutex(t *testing.T) {
	w := NewRealWorld()
	fa := w.FetchAdd("R")
	th := RealThread(0)
	fa.FetchAdd(th, big.NewInt(9))

	r := fa.(*realFetchAdd)
	r.mu.Lock()
	defer r.mu.Unlock()

	done := make(chan int64, 1)
	go func() {
		done <- fa.FetchAdd(RealThread(1), new(big.Int)).Int64()
	}()
	select {
	case got := <-done:
		if got != 9 {
			t.Fatalf("read under held mutator mutex = %d, want 9", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FetchAdd(0) blocked on the mutator mutex; reads must be lock-free")
	}
}

// TestRealFetchAddCOWStress drives mutators against lock-free readers. Every
// reader must observe a monotonically non-decreasing sequence of counts (the
// register only grows here), and the final total must be exact. Run with
// -race, this also certifies the safe publication of the immutable snapshots.
func TestRealFetchAddCOWStress(t *testing.T) {
	w := NewRealWorld()
	fa := w.FetchAdd("R")
	const writers, readers, reps = 4, 4, 300
	var wg sync.WaitGroup
	for p := 0; p < writers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := RealThread(p)
			for i := 0; i < reps; i++ {
				fa.FetchAdd(th, big.NewInt(1))
			}
		}(p)
	}
	errs := make(chan error, readers)
	for p := 0; p < readers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := RealThread(writers + p)
			last := int64(-1)
			for i := 0; i < reps; i++ {
				got := fa.FetchAdd(th, new(big.Int)).Int64()
				if got < last {
					errs <- fmt.Errorf("reader %d: value went backwards: %d after %d", p, got, last)
					return
				}
				last = got
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fa.FetchAdd(RealThread(0), new(big.Int)).Int64(); got != writers*reps {
		t.Fatalf("final total = %d, want %d", got, writers*reps)
	}
}

func TestRealSwap(t *testing.T) {
	w := NewRealWorld()
	s := w.Swap("s", 10)
	th := RealThread(1)
	if old := s.Swap(th, 20); old != 10 {
		t.Fatalf("Swap returned %d, want 10", old)
	}
	if got := s.Read(th); got != 20 {
		t.Fatalf("Read = %d, want 20", got)
	}
}

func TestRealCAS(t *testing.T) {
	w := NewRealWorld()
	c := w.CAS("c", 1)
	th := RealThread(0)
	if c.CompareAndSwap(th, 2, 3) {
		t.Fatal("CAS with wrong old succeeded")
	}
	if !c.CompareAndSwap(th, 1, 9) {
		t.Fatal("CAS with right old failed")
	}
	if got := c.Read(th); got != 9 {
		t.Fatalf("Read = %d, want 9", got)
	}
}

func TestRealCASCell(t *testing.T) {
	type node struct{ v int }
	w := NewRealWorld()
	a, b := &node{1}, &node{2}
	c := w.CASCell("cell", a)
	th := RealThread(0)
	if got := c.Load(th); got != any(a) {
		t.Fatal("Load != init")
	}
	if c.CompareAndSwap(th, b, a) {
		t.Fatal("CAS with wrong old succeeded")
	}
	if !c.CompareAndSwap(th, a, b) {
		t.Fatal("CAS with right old failed")
	}
	if got := c.Load(th); got != any(b) {
		t.Fatal("Load != new value")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	w := NewRealWorld()
	w.Register("x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	w.TAS("x")
}

// mustPanicDuplicate runs alloc and requires the duplicate-name panic naming
// want.
func mustPanicDuplicate(t *testing.T, want string, alloc func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprintf("prim: duplicate base object name %q", want)
		if r := recover(); r != msg {
			t.Fatalf("panic = %v, want %q", r, msg)
		}
	}()
	alloc()
}

// TestBlockNameCollisions pins the exact block reservation rule: a block
// "A" of n objects collides with exactly the names "A" and "A[0]" ..
// "A[n-1]", in whichever order the claims arrive.
func TestBlockNameCollisions(t *testing.T) {
	t.Run("block vs block", func(t *testing.T) {
		w := NewRealWorld()
		FetchAddInts(w, "A", 2, 0)
		mustPanicDuplicate(t, "A", func() { AnyRegisters(w, "A", 5, false) })
	})
	t.Run("block over claimed name", func(t *testing.T) {
		w := NewRealWorld()
		w.Register("A", 0)
		mustPanicDuplicate(t, "A", func() { FetchAddInts(w, "A", 1, 0) })
	})
	t.Run("block vs name[i]", func(t *testing.T) {
		w := NewRealWorld()
		FetchAddInts(w, "A", 3, 0)
		mustPanicDuplicate(t, "A[2]", func() { w.TAS("A[2]") })
		mustPanicDuplicate(t, "A", func() { w.Swap("A", 0) })
		// Outside the range, or not indexName's spelling: distinct names.
		w.Register("A[3]", 0)
		w.Register("A[02]", 0)
		w.Register("A[-1]", 0)
		w.Register("A[x]", 0)
	})
	t.Run("name[i] then block", func(t *testing.T) {
		w := NewRealWorld()
		w.Register("A[4]", 0)
		w.Register("A[2]", 0)
		FetchAddInts(w, "A", 2, 0) // A[0], A[1]: clear of both
		w2 := NewRealWorld()
		w2.Register("A[4]", 0)
		w2.Register("A[2]", 0)
		mustPanicDuplicate(t, "A[2]", func() { AnyRegisters(w2, "A", 3, false) })
	})
	t.Run("nested block", func(t *testing.T) {
		w := NewRealWorld()
		FetchAddInts(w, "A", 4, 0)
		mustPanicDuplicate(t, "A[1]", func() { FetchAddInts(w, "A[1]", 2, 0) })
		w2 := NewRealWorld()
		FetchAddInts(w2, "A[1]", 2, 0)
		mustPanicDuplicate(t, "A[1][0]", func() { w2.Register("A[1][0]", 0) })
		mustPanicDuplicate(t, "A[1]", func() { FetchAddInts(w2, "A", 4, 0) })
	})
}

// TestBlockElementsAreIndependentRegisters: block elements start at init
// and step independently, like individually allocated registers, and At
// returns the same register on every call.
func TestBlockElementsAreIndependentRegisters(t *testing.T) {
	w := NewRealWorld()
	th := RealThread(0)
	fs := FetchAddInts(w, "F", 3, 7)
	if fs.Len() != 3 {
		t.Fatalf("Len = %d, want 3", fs.Len())
	}
	if prev := fs.At(1).FetchAddInt(th, 5); prev != 7 {
		t.Fatalf("FetchAddInt prev = %d, want 7", prev)
	}
	if got := []int64{fs.At(0).FetchAddInt(th, 0), fs.At(1).FetchAddInt(th, 0), fs.At(2).FetchAddInt(th, 0)}; got[0] != 7 || got[1] != 12 || got[2] != 7 {
		t.Fatalf("block values = %v, want [7 12 7]", got)
	}
	if fs.At(1) != fs.At(1) {
		t.Fatal("At(1) returned two different registers")
	}
	rs := AnyRegisters(w, "R", 2, false)
	rs.At(0).WriteAny(th, true)
	if rs.At(0).ReadAny(th) != true || rs.At(1).ReadAny(th) != false {
		t.Fatalf("any block = [%v %v], want [true false]", rs.At(0).ReadAny(th), rs.At(1).ReadAny(th))
	}
	if rs.At(1) != rs.At(1) {
		t.Fatal("AnyRegisters At(1) returned two different registers")
	}
	var empty FetchAddIntBlock
	if empty.Len() != 0 || (AnyRegisterBlock{}).Len() != 0 {
		t.Fatal("zero blocks are not empty")
	}
}

func TestTAS2AccessDiscipline(t *testing.T) {
	w := NewRealWorld()
	ts := w.TAS2("t2", 0, 2)
	if got := ts.TestAndSet(RealThread(0)); got != 0 {
		t.Fatalf("first TestAndSet = %d, want 0", got)
	}
	if got := ts.TestAndSet(RealThread(2)); got != 1 {
		t.Fatalf("second TestAndSet = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("third-party access did not panic")
		}
	}()
	ts.Read(RealThread(1))
}

func TestTASArrayLazyAllocation(t *testing.T) {
	w := NewRealWorld()
	arr := NewTASArray(w, "TS")
	th := RealThread(0)
	a := arr.Get(3)
	if b := arr.Get(3); a != b {
		t.Fatal("Get(3) returned distinct objects")
	}
	if got := arr.Get(5).TestAndSet(th); got != 0 {
		t.Fatalf("fresh entry TestAndSet = %d, want 0", got)
	}
	if got := arr.Get(3).Read(th); got != 0 {
		t.Fatalf("entry 3 affected by entry 5: %d", got)
	}
}

func TestRegisterArray(t *testing.T) {
	w := NewRealWorld()
	arr := NewRegisterArray(w, "Items", -1)
	th := RealThread(0)
	if got := arr.Get(10).Read(th); got != -1 {
		t.Fatalf("init = %d, want -1", got)
	}
	arr.Get(10).Write(th, 42)
	if got := arr.Get(10).Read(th); got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
}

func TestSwapArray(t *testing.T) {
	w := NewRealWorld()
	arr := NewSwapArray(w, "S", 0)
	th := RealThread(0)
	if old := arr.Get(2).Swap(th, 5); old != 0 {
		t.Fatalf("Swap = %d, want 0", old)
	}
	if got := arr.Get(2).Read(th); got != 5 {
		t.Fatalf("Read = %d, want 5", got)
	}
}

func TestArrayConcurrentGet(t *testing.T) {
	w := NewRealWorld()
	arr := NewTASArray(w, "TS")
	var wg sync.WaitGroup
	objs := make([]ReadableTAS, 16)
	for p := range objs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			objs[p] = arr.Get(0)
		}(p)
	}
	wg.Wait()
	for p := 1; p < len(objs); p++ {
		if objs[p] != objs[0] {
			t.Fatal("concurrent Get(0) returned distinct objects")
		}
	}
}
