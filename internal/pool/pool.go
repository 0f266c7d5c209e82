// Package pool is the lane-leasing runtime that turns the library's
// fixed-process-identity objects into objects usable by arbitrary callers.
//
// Every construction in this repository follows the paper's model: an
// operation is invoked by process p ∈ [0, n), and the per-process lanes of
// the fetch&add encodings (and the single-writer snapshot components) require
// that at most one thread acts as process p at a time. That is the research
// harness's contract — and exactly what a server with a fluctuating goroutine
// population cannot promise by hand.
//
// A Pool manages n process identities ("lanes") as leases. Acquire claims a
// free lane and returns it as a Lease whose Thread is the process identity to
// pass into the paper objects; Release returns the lane. While a goroutine
// holds the lease it is, exclusively, process p — so HTTP handlers, worker
// pools, or any other transient callers can share one family of n-process
// objects without manual thread bookkeeping.
//
// The pool itself is built from the repository's own consensus-number-2
// primitives, in the spirit of Khanchandani–Wattenhofer's program of making
// weak primitives practical:
//
//   - lane claim: one readable swap register per lane, 0 = free, 1 = leased.
//     A swap register is a resettable test&set (swap(1) "wins" iff it returns
//     0, swap(0) releases), which is why a lane lease needs consensus number
//     2 and no more. Claim and release are each a single primitive step.
//   - registration: a fetch&add register counts acquisitions and seeds each
//     goroutine's probe cursor, spreading newcomers across the lane array.
//     The ticket also stamps a per-lane generation register (single-writer
//     while the lane is held), which lets Release detect stale leases —
//     releasing twice panics even if the lane has already been re-leased.
//
// Mutual exclusion on a lane is carried entirely by the swap objects. A
// buffered channel bounds the number of concurrent lessees to n and parks
// waiters when every lane is leased; like the mutex inside the real world's
// wide fetch&add register, it is Go-runtime scheduling substrate, not part of
// the shared-memory protocol: with at most n admitted claimants, at least one
// lane register always holds 0, so the probe loop's progress does not depend
// on the channel's fairness.
package pool

import (
	"fmt"
	"sync/atomic"

	"stronglin/internal/prim"
)

// Pool leases process identities in [0, n) to goroutines.
type Pool struct {
	n     int
	lanes []prim.ReadableSwap
	gens  []prim.Register  // gens[i]: generation stamp of lane i's current lease
	reg   prim.FetchAddInt // acquisition tickets; also seeds probe cursors
	slots chan struct{}    // admission: at most n concurrent claimants

	// Telemetry (never read by the leasing protocol). waits counts Acquires
	// that found every lane leased and parked; steals counts claims that won
	// a lane other than their ticket-seeded start — both signs the lane
	// population is too small for the goroutine population. Counted off the
	// uncontended path only: an Acquire that admits immediately and wins its
	// seeded lane touches neither.
	waits  atomic.Int64
	steals atomic.Int64
}

// New builds a pool of n lanes whose base objects are allocated from w under
// the given name.
func New(w prim.World, name string, n int) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("pool: lane count must be >= 1, got %d", n))
	}
	p := &Pool{
		n:     n,
		lanes: make([]prim.ReadableSwap, n),
		gens:  make([]prim.Register, n),
		reg:   w.FetchAddInt(name+".tickets", 0),
		slots: make(chan struct{}, n),
	}
	arr := prim.NewSwapArray(w, name+".lane", 0)
	genArr := prim.NewRegisterArray(w, name+".gen", 0)
	for i := 0; i < n; i++ {
		p.lanes[i] = arr.Get(i)
		p.gens[i] = genArr.Get(i)
		p.slots <- struct{}{}
	}
	return p
}

// Lanes returns the number of process identities the pool manages.
func (p *Pool) Lanes() int { return p.n }

// Lease is a claimed process identity. It must be released exactly once, by
// the goroutine that acquired it or a goroutine it handed the lease to;
// operations using Thread() must happen before the release.
type Lease struct {
	p    *Pool
	lane int
	gen  int64
}

// Thread returns the leased process identity, valid until Release.
func (l Lease) Thread() prim.RealThread { return prim.RealThread(l.lane) }

// Release returns the lane to the pool. A stale release — a second Release of
// the same lease, including after the lane has been re-leased to someone else
// — panics instead of corrupting the new holder: every claim stamps the
// lane's generation register, and Release refuses when the stamp is not its
// own. (The stamp check is a misuse detector, not part of the leasing
// protocol: detection is exact for sequential double-release, best-effort
// when the duplicate release races a concurrent claim.)
func (l Lease) Release() {
	if l.p == nil {
		panic("pool: Release of zero-value Lease")
	}
	if g := l.p.gens[l.lane].Read(l.Thread()); g != l.gen {
		panic(fmt.Sprintf("pool: stale release of lane %d (lease generation %d, lane at %d)", l.lane, l.gen, g))
	}
	if prev := l.p.lanes[l.lane].Swap(l.Thread(), 0); prev != 1 {
		panic(fmt.Sprintf("pool: double release of lane %d", l.lane))
	}
	l.p.slots <- struct{}{}
}

// Acquire claims a free lane, blocking while all lanes are leased.
func (p *Pool) Acquire() Lease {
	select {
	case <-p.slots:
	default:
		p.waits.Add(1)
		<-p.slots
	}
	return p.claim()
}

// claim probes the lane array for a register holding 0. The caller holds an
// admission slot, so at most n-1 other claimants hold lanes and at least one
// register reads 0 at every instant; the loop can only re-probe while other
// claimants are actively moving between lanes, so it is lock-free in exactly
// the paper's sense (some claimant always succeeds).
func (p *Pool) claim() Lease {
	ticket := p.reg.FetchAddInt(prim.RealThread(0), 1)
	start := int(ticket % int64(p.n))
	for {
		for i := 0; i < p.n; i++ {
			lane := (start + i) % p.n
			if p.lanes[lane].Swap(prim.RealThread(lane), 1) == 0 {
				if i != 0 {
					p.steals.Add(1) // seeded lane was taken; won a later probe
				}
				// Stamp the lease generation. Between winning the swap and
				// releasing, the holder is the lane's only writer, so the
				// ticket (unique per acquisition) is safe to publish with a
				// plain register write.
				gen := ticket + 1 // nonzero: distinguishes from the initial stamp
				p.gens[lane].Write(prim.RealThread(lane), gen)
				return Lease{p: p, lane: lane, gen: gen}
			}
		}
	}
}

// With acquires a lane, runs f as that process, and releases the lane. It is
// the one-liner bridging ordinary goroutines to the paper's model:
//
//	pool.With(func(t prim.RealThread) { counter.Inc(t) })
func (p *Pool) With(f func(t prim.RealThread)) {
	l := p.Acquire()
	defer l.Release()
	f(l.Thread())
}

// InUse returns a snapshot of the number of currently leased lanes.
func (p *Pool) InUse() int { return p.n - len(p.slots) }

// Acquires returns the total number of acquisitions ever granted (the
// registration count held by the fetch&add ticket register).
func (p *Pool) Acquires(t prim.Thread) int64 {
	return p.reg.FetchAddInt(t, 0)
}

// Waits returns how many Acquires found every lane leased and had to park —
// the lease-starvation signal for sizing the lane population.
func (p *Pool) Waits() int64 { return p.waits.Load() }

// Steals returns how many claims found their ticket-seeded lane taken and won
// a later probe instead — probe-collision pressure short of full starvation.
func (p *Pool) Steals() int64 { return p.steals.Load() }
