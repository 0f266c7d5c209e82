package main

import (
	"sync"

	"stronglin/internal/obs"
)

// Server-side op coalescing: when several HTTP requests of the same kind
// are in flight at once, one of them — the leader — performs a single
// engine operation on behalf of the whole group. A descriptor's co field
// (objects.go) selects it.
//
//   - Additive writes fold: N concurrent /counter/inc requests become ONE
//     Counter.Add of their sum (one XADD on the owning shard instead of N),
//     and concurrent /gset adds become one pass over the distinct elements.
//   - Reads share: concurrent GETs of the same object ride one validated
//     combining read / snapshot scan and all return its view.
//
// Both directions preserve per-request strong linearizability. The leader's
// engine operation starts only after every member has joined the batch and
// completes before any member responds, so it lies inside every member's
// request interval: a folded write linearizes all N requests at the single
// XADD's point (each increment's effect is exactly its contribution to the
// sum), and a shared read hands every member a view produced by one real
// validated operation inside its interval — the server never invents or
// replays a value. What coalescing changes is only the COST: the engine sees
// one operation (and the pool grants one lease) where it saw N.
//
// The mechanics are leader/follower with no dedicated goroutines, in the
// style of a combining funnel: the first arrival at an idle coalescer runs
// solo, with no batch at all; arrivals while an operation is in flight fold
// themselves into the single `next` batch, whose creator parks as the next
// leader and is released when the current operation finishes. Arrival
// order is a mutex, so folding is plain field updates; batch results are
// published by the happens-before edges of the two wait groups' Done.

// batch is one contended coalesced unit of work: the folded write payload
// going in, the leader-published result coming out.
type batch struct {
	start sync.WaitGroup // done when this batch's leader may run
	done  sync.WaitGroup // done when the leader has applied the batch
	n     int64          // requests folded into this batch

	reqs []args  // folded writes, one per member (grouped by identity at apply)
	errs []error // leader-published per-member write results, indexed like reqs

	res result // leader-published shared read result
	err error
}

// coalescer serializes one kind of engine operation and folds concurrent
// requests for it into batches. The zero value is usable; instruments are
// optional (nil-safe obs types).
type coalescer struct {
	mu     sync.Mutex
	busy   bool   // an operation is in flight; arrivals join `next`
	closed bool   // funnel drained for shutdown; arrivals run uncoalesced
	next   *batch // the batch the next leader will run (nil until someone waits)

	size     *obs.Histogram // batch sizes, one observation per applied batch
	absorbed *obs.Counter   // follower requests absorbed into a leader's batch (size-1 each)
}

// join enters one request into the funnel. A nil batch means the request
// runs its engine step solo, now: the funnel was idle and held reports
// that the caller owns it until it calls finish, or the funnel is drained
// and the caller runs outside it. Otherwise the request joined the next
// batch as member idx, storing a in it when fold is set; member 0 created
// the batch and leads it (lead), every other member waits for b.done.
func (co *coalescer) join(a args, fold bool) (b *batch, idx int, held bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		// The funnel is draining for shutdown: run uncoalesced, entirely
		// outside it. Claiming busy (or calling finish) from here would hand
		// the funnel state machine to a request that no longer participates
		// in it — finish could release a parked leader whose predecessor is
		// still applying. The bypass touches neither.
		return nil, 0, false
	}
	if !co.busy {
		// Idle: run solo, uncoalesced. This is the steady-state fast path —
		// one mutex acquire on each side of the engine op.
		co.busy = true
		return nil, 0, true
	}
	b = co.next
	if b == nil {
		b = new(batch)
		b.start.Add(1)
		b.done.Add(1)
		co.next = b
	}
	idx = int(b.n)
	b.n++
	if fold {
		b.reqs = append(b.reqs, a)
	}
	return b, idx, false
}

// lead waits until the in-flight operation hands the funnel over, applies
// b and then hands the funnel on to the waiting next leader. The hand-off is
// deferred so a panicking engine op (which drops its request's connection,
// see wire.go) cannot wedge every later request.
func (co *coalescer) lead(b *batch, apply func(*batch)) {
	b.start.Wait()
	defer func() {
		b.done.Done()
		co.finish()
	}()
	co.size.Observe(b.n)
	if b.n > 1 {
		co.absorbed.Add(b.n - 1)
	}
	apply(b)
}

// finish releases the parked next leader, if any; otherwise the coalescer
// goes idle. Popping `next` under the mutex is what closes the batch to new
// members: every fold into it happened before the pop, so the released
// leader reads the folded payload race-free through the start release.
func (co *coalescer) finish() {
	co.mu.Lock()
	nxt := co.next
	co.next = nil
	if nxt == nil {
		co.busy = false
	}
	co.mu.Unlock()
	if nxt != nil {
		nxt.start.Done()
	}
}

// drain closes the funnel for shutdown: every later arrival runs its engine
// op solo instead of parking behind whatever is in flight. Without this, a
// request that joins the funnel after graceful shutdown begins can park as
// the NEXT leader behind a slow in-flight batch — the listener's drain then
// waits on a request that is itself waiting on the funnel, and the drain
// deadline kills both. Setting the flag under the mutex means every join
// either saw it (and bypassed) or had already joined a batch whose leader
// chain was complete before drain returned; in-flight batches finish
// normally either way.
func (co *coalescer) drain() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
}

// do runs one request through the funnel. A request that finds it idle
// (or drained) runs solo() directly, allocating nothing; otherwise it
// joins the next batch, storing a in it when fold is set, and either leads
// it, running apply on the whole batch, or waits for its leader. A folded
// member answers with its own entry of the batch's errs, a shared read
// with the leader's result. solo and apply are only called, never kept, so
// the caller's closures stay on its stack.
func (co *coalescer) do(a args, fold bool, solo func() (result, error), apply func(*batch)) (result, error) {
	b, idx, held := co.join(a, fold)
	if b == nil {
		if held {
			defer co.finish()
		}
		co.size.Observe(1)
		return solo()
	}
	if idx == 0 {
		co.lead(b, apply)
	} else {
		b.done.Wait()
	}
	if fold {
		return result{}, b.errs[idx]
	}
	return b.res, b.err
}

// run performs one request's engine step under a lane lease, through the
// op's coalescer when it has one.
func (s *server) run(d *op, a args) (result, error) {
	if d.co == coNone {
		return s.step(d, a)
	}
	return s.co[d.stat].do(a, d.co == coFold,
		func() (result, error) { return s.step(d, a) },
		func(b *batch) {
			if d.co == coFold {
				s.applyFolded(d, b)
			} else {
				// Concurrent reads share one validated read: the leader's
				// read lies inside every member's request interval.
				b.res, b.err = s.step(d, a)
			}
		})
}

// step runs d's engine step on a under a lane lease.
func (s *server) step(d *op, a args) (result, error) {
	l := s.pool.Acquire()
	defer l.Release()
	return d.apply(s, l.Thread(), a)
}

// applyFolded is a folding coalescer's apply: the batch's writes group by
// identity (ackKind.ident) and each group runs ONE engine step, all under a
// single lane lease. N counter increments become one Add of their sum,
// same-key map increments one IncBy of theirs, same-key max writes one Max
// of the largest (the lower ones were no-ops once it landed), and repeated
// set adds of one element one add. A failed step has no effect, so a
// folded sum that fails — it can exceed a lane's field budget even when
// each member fits alone — falls back to per-request steps, and only the
// requests genuinely past the budget fail.
func (s *server) applyFolded(d *op, b *batch) {
	b.errs = make([]error, len(b.reqs))
	l := s.pool.Acquire()
	defer l.Release()
	t := l.Thread()
	if len(b.reqs) == 1 {
		_, b.errs[0] = d.apply(s, t, b.reqs[0])
		return
	}
	groups := make(map[args][]int, len(b.reqs))
	for i, a := range b.reqs {
		id := d.ack.ident(a)
		groups[id] = append(groups[id], i)
	}
	for id, idxs := range groups {
		a := id
		if d.ack != ackSet {
			a.n = b.reqs[idxs[0]].n
			for _, i := range idxs[1:] {
				if n := b.reqs[i].n; d.ack == ackSum {
					a.n += n
				} else if n > a.n {
					a.n = n
				}
			}
		}
		_, err := d.apply(s, t, a)
		if err != nil && d.ack == ackSum && len(idxs) > 1 {
			for _, i := range idxs {
				_, b.errs[i] = d.apply(s, t, b.reqs[i])
			}
			continue
		}
		for _, i := range idxs {
			b.errs[i] = err
		}
	}
}
