package keyed

// The witness-free reads: Has and Get without their closing witnesses, which
// the package tests drive to pin the game checker refuting them. Each is the
// engine's lookup plus the production collect, with no epoch reads around it.

import "stronglin/internal/prim"

// hasWitnessFree is Has with the closing witnesses removed: one unvalidated
// collect, no closing epoch or table re-read. It is linearizable — every
// monotone bit it reads is real — but NOT strongly linearizable: the miss is
// committed by information a later step could still contradict. Retained
// only for the negative model check pinning that gap.
func (g *GSet) hasWitnessFree(t prim.Thread, key string) bool {
	r, e := g.lookup(t, key)
	if e == nil {
		return false
	}
	v, _ := g.collect(t, r, e)
	return v != 0
}

// getWitnessFree is Get with the closing witnesses removed: a single
// unvalidated collect. Linearizable-but-NOT-strongly-linearizable; retained
// for the negative model check only.
func (m *MonotoneMap) getWitnessFree(t prim.Thread, key string) (int64, error) {
	r, e := m.lookup(t, key)
	if e == nil {
		return 0, ErrUnknownKey
	}
	acc, _ := m.collect(t, r, e)
	return decode(acc, e)
}
