package pool

import (
	"sync"
	"sync/atomic"
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/shard"
)

func TestPoolAcquireReleaseBasic(t *testing.T) {
	p := New(prim.NewRealWorld(), "p", 3)
	if p.Lanes() != 3 {
		t.Fatalf("Lanes = %d, want 3", p.Lanes())
	}
	a, b, c := p.Acquire(), p.Acquire(), p.Acquire()
	seen := map[int]bool{a.Thread().ID(): true, b.Thread().ID(): true, c.Thread().ID(): true}
	if len(seen) != 3 {
		t.Fatalf("three leases share a lane: %d, %d, %d", a.Thread().ID(), b.Thread().ID(), c.Thread().ID())
	}
	if got := p.InUse(); got != 3 {
		t.Fatalf("InUse = %d, want 3", got)
	}
	b.Release()
	if got := p.InUse(); got != 2 {
		t.Fatalf("InUse after release = %d, want 2", got)
	}
	d := p.Acquire()
	if id := d.Thread().ID(); id != b.Thread().ID() {
		t.Fatalf("reacquired lane %d, want the released lane %d", id, b.Thread().ID())
	}
	a.Release()
	c.Release()
	d.Release()
	if got := p.Acquires(prim.RealThread(0)); got != 4 {
		t.Fatalf("Acquires = %d, want 4", got)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := New(prim.NewRealWorld(), "p", 2)
	l := p.Acquire()
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	l.Release()
}

// TestPoolStaleReleaseAfterReacquisitionPanics is the nastier double-release:
// the lane has already been leased to someone else, so a silent release would
// hand the new holder's identity to a third party. The generation stamp must
// catch it.
func TestPoolStaleReleaseAfterReacquisitionPanics(t *testing.T) {
	p := New(prim.NewRealWorld(), "p", 1)
	stale := p.Acquire()
	stale.Release()
	fresh := p.Acquire() // same lane, new generation
	defer fresh.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("stale Release against a re-leased lane did not panic")
		}
		if got := p.InUse(); got != 1 {
			t.Fatalf("InUse after rejected stale release = %d, want 1", got)
		}
	}()
	stale.Release()
}

func TestPoolZeroLeasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of zero-value Lease did not panic")
		}
	}()
	var l Lease
	l.Release()
}

// TestPoolLaneExclusivityUnderChurn floods a small pool from many goroutines
// and asserts the leasing invariant: at no instant do two goroutines hold the
// same lane. Run under -race this also checks the happens-before edges of the
// admission channel and the swap registers.
func TestPoolLaneExclusivityUnderChurn(t *testing.T) {
	const lanes, workers, rounds = 4, 32, 200
	p := New(prim.NewRealWorld(), "p", lanes)
	holders := make([]atomic.Int32, lanes)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l := p.Acquire()
				lane := l.Thread().ID()
				if h := holders[lane].Add(1); h != 1 {
					t.Errorf("lane %d held by %d goroutines", lane, h)
				}
				holders[lane].Add(-1)
				l.Release()
			}
		}()
	}
	wg.Wait()
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse after churn = %d, want 0", got)
	}
	if got := p.Acquires(prim.RealThread(0)); got != workers*rounds {
		t.Fatalf("Acquires = %d, want %d", got, workers*rounds)
	}
}

// TestPoolWithShardedCounter is the integration the pool exists for: many
// anonymous goroutines drive an n-process sharded counter through leased
// identities, and no increment is lost.
func TestPoolWithShardedCounter(t *testing.T) {
	const lanes, workers, incs = 4, 16, 100
	w := prim.NewRealWorld()
	p := New(w, "p", lanes)
	c := shard.NewCounter(w, "c", lanes, 2)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				p.With(func(t prim.RealThread) { c.Inc(t) })
			}
		}()
	}
	wg.Wait()
	var got int64
	p.With(func(t prim.RealThread) { got = c.Read(t) })
	if got != workers*incs {
		t.Fatalf("counter = %d, want %d", got, workers*incs)
	}
}
