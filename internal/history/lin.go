package history

import "stronglin/internal/spec"

// LinEntry is one element of a linearization witness.
type LinEntry struct {
	OpID int
	Resp string
}

// LinResult is the outcome of a linearizability check.
type LinResult struct {
	// Ok reports whether the history is linearizable.
	Ok bool
	// Witness is a linearization (op IDs with responses) when Ok.
	Witness []LinEntry
	// States counts distinct search states visited.
	States int
}

// CheckLinearizable decides whether the history linearizes against the
// specification: there is a sequential execution containing every complete
// operation (with its actual response) and some pending ones, respecting the
// history's real-time order.
//
// The search linearizes one minimal operation at a time (an operation is
// minimal if no other unlinearized operation precedes it), branching over
// the specification's outcomes, and memoises failed (linearized-set,
// spec-state) pairs.
func CheckLinearizable(h History, sp spec.Spec) LinResult {
	c := &linChecker{h: h, failed: make(map[string]struct{})}
	for _, o := range h.Ops {
		if o.Complete() {
			c.completed++
		}
	}
	ok, witness := c.search(sp.Init(h.N), newBitset(len(h.Ops)), nil)
	return LinResult{Ok: ok, Witness: witness, States: c.states}
}

type linChecker struct {
	h         History
	completed int
	states    int
	failed    map[string]struct{}
}

func (c *linChecker) search(st spec.State, done bitset, prefix []LinEntry) (bool, []LinEntry) {
	if allCompletedDone(c.h, done) {
		out := make([]LinEntry, len(prefix))
		copy(out, prefix)
		return true, out
	}
	key := done.key() + st.Key()
	if _, bad := c.failed[key]; bad {
		return false, nil
	}
	c.states++

	for i := range c.h.Ops {
		op := c.h.Ops[i]
		if done.has(i) || !c.minimal(i, done) {
			continue
		}
		for _, out := range st.Steps(op.Op) {
			if op.Complete() && out.Resp != op.Resp {
				continue
			}
			if ok, w := c.search(out.Next, done.with(i), append(prefix, LinEntry{OpID: op.ID, Resp: out.Resp})); ok {
				return true, w
			}
		}
	}
	c.failed[key] = struct{}{}
	return false, nil
}

// minimal reports whether no unlinearized operation precedes op i.
func (c *linChecker) minimal(i int, done bitset) bool {
	oi := c.h.Ops[i]
	for j := range c.h.Ops {
		if j == i || done.has(j) {
			continue
		}
		oj := c.h.Ops[j]
		if oj.Complete() && oj.Return < oi.Invoke {
			return false
		}
	}
	return true
}

func allCompletedDone(h History, done bitset) bool {
	for i := range h.Ops {
		if h.Ops[i].Complete() && !done.has(i) {
			return false
		}
	}
	return true
}
