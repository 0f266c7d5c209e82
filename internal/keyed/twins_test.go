package keyed

// The witness-free reads: Has and Get without their closing witnesses, which
// the package tests drive to pin the game checker refuting them.

import "stronglin/internal/prim"

// hasWitnessFree is Has with the closing witnesses removed: one unvalidated
// collect, no closing epoch or table re-read. It is linearizable — every
// monotone bit it reads is real — but NOT strongly linearizable: the miss is
// committed by information a later step could still contradict. Retained
// only for the negative model check pinning that gap.
func (g *GSet) hasWitnessFree(t prim.Thread, key string) bool {
	tb := g.table.ReadAny(t).(*gsetTable)
	b := tb.bucket(key)
	b.mu.RLock()
	e := b.dir[key]
	b.mu.RUnlock()
	if e == nil {
		return false
	}
	mask := g.slotMask[e.slot]
	for wi := range b.words {
		if mpPayload(g.codec, b.words[wi].FetchAddInt(t, 0))&mask != 0 {
			return true
		}
	}
	return false
}

// getWitnessFree is Get with the closing witnesses removed: a single
// unvalidated collect. Linearizable-but-NOT-strongly-linearizable; retained
// for the negative model check only.
func (m *MonotoneMap) getWitnessFree(t prim.Thread, key string) (int64, error) {
	tb := m.table.ReadAny(t).(*mapTable)
	b := tb.bucket(key)
	b.mu.RLock()
	e := b.dir[key]
	b.mu.RUnlock()
	if e == nil {
		return 0, ErrUnknownKey
	}
	lo := e.slot * m.lanes
	hi := lo + m.lanes - 1
	perWord := m.codec.LanesPerWord()
	var acc int64
	for wi := m.codec.WordOf(lo); wi <= m.codec.WordOf(hi); wi++ {
		word := b.words[wi].FetchAddInt(t, 0)
		first := max(lo, wi*perWord)
		last := min(hi, wi*perWord+perWord-1)
		for pl := first; pl <= last; pl++ {
			v := m.codec.Lane(word, pl)
			if e.kind == KindMax {
				acc = max(acc, v)
			} else {
				acc += v
			}
		}
	}
	if acc == 0 {
		return 0, ErrUnknownKey
	}
	if e.kind == KindMax {
		acc--
	}
	return acc, nil
}
