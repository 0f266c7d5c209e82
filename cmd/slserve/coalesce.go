package main

import (
	"sync"

	"stronglin"
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
// solo; arrivals while an operation is in flight fold themselves into the
// single `next` batch, whose creator parks as the next leader and is released
// when the current operation finishes. Arrival order is a mutex, so folding
// is plain field updates; batch results are published by the happens-before
// edges of the two channel closes.

// batch is one coalesced unit of work: the folded write payload going in,
// the leader-published result coming out.
type batch struct {
	start chan struct{} // closed when this batch's leader may run (nil for a solo leader)
	done  chan struct{} // closed when the leader has applied the batch
	n     int64         // requests folded into this batch

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

// do folds one request into a batch and returns that batch after its engine
// operation has been applied. fold runs under the coalescer mutex (field
// updates only — no engine steps, no blocking); apply runs the single engine
// operation and publishes results onto the batch. Exactly one goroutine per
// batch runs apply.
func (co *coalescer) do(fold func(*batch), apply func(*batch)) *batch {
	co.mu.Lock()
	if co.closed {
		// The funnel is draining for shutdown: run uncoalesced, entirely
		// outside it. Claiming busy (or calling finish) from here would hand
		// the funnel state machine to a request that no longer participates
		// in it — finish could release a parked leader whose predecessor is
		// still applying. The bypass touches neither.
		co.mu.Unlock()
		b := &batch{done: make(chan struct{}), n: 1}
		fold(b)
		co.size.Observe(1)
		apply(b)
		close(b.done)
		return b
	}
	if !co.busy {
		// Idle: run solo, uncoalesced. This is the steady-state fast path —
		// one mutex acquire on each side of the engine op.
		co.busy = true
		b := &batch{done: make(chan struct{}), n: 1}
		fold(b)
		co.mu.Unlock()
		co.run(b, apply)
		return b
	}
	b := co.next
	leader := b == nil
	if leader {
		b = &batch{start: make(chan struct{}), done: make(chan struct{}), n: 1}
		co.next = b
	} else {
		b.n++
	}
	fold(b)
	co.mu.Unlock()
	if leader {
		<-b.start // released by the in-flight operation's finish
		co.run(b, apply)
	} else {
		<-b.done
	}
	return b
}

// run applies a batch and then hands the coalescer to the waiting next
// leader (or marks it idle). The hand-off is deferred so a panicking engine
// op (which drops its request's connection, see wire.go) cannot wedge every
// later request.
func (co *coalescer) run(b *batch, apply func(*batch)) {
	defer func() {
		close(b.done)
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
// leader reads the folded payload race-free through the start-channel close.
func (co *coalescer) finish() {
	co.mu.Lock()
	nxt := co.next
	co.next = nil
	if nxt == nil {
		co.busy = false
	}
	co.mu.Unlock()
	if nxt != nil {
		close(nxt.start)
	}
}

// drain closes the funnel for shutdown: every later arrival runs its engine
// op solo instead of parking behind whatever is in flight. Without this, a
// request that joins the funnel after graceful shutdown begins can park as
// the NEXT leader behind a slow in-flight batch — the listener's drain then
// waits on a request that is itself waiting on the funnel, and the drain
// deadline kills both. Setting the flag under the mutex means every do()
// either saw it (and bypassed) or had already joined a batch whose leader
// chain was complete before drain returned; in-flight batches finish
// normally either way.
func (co *coalescer) drain() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
}

// run performs one request's engine step under a lane lease, through the
// op's coalescer when it has one.
func (s *server) run(d *op, a args) (result, error) {
	var res result
	var err error
	switch d.co {
	case coShare:
		// Concurrent reads share one validated read: the leader's read lies
		// inside every member's request interval.
		b := s.co[d.stat].do(
			func(*batch) {},
			func(b *batch) {
				s.pool.With(func(t stronglin.Thread) { b.res, b.err = d.apply(s, t, a) })
			})
		return b.res, b.err
	case coFold:
		var idx int
		b := s.co[d.stat].do(
			func(b *batch) { idx = len(b.reqs); b.reqs = append(b.reqs, a) },
			func(b *batch) { s.applyFolded(d, b) })
		return res, b.errs[idx]
	}
	s.pool.With(func(t stronglin.Thread) { res, err = d.apply(s, t, a) })
	return res, err
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
	s.pool.With(func(t stronglin.Thread) {
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
	})
}
