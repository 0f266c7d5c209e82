package keyed

import (
	"fmt"
	"sync/atomic"

	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// GSet is a grow-only set over string keys, hashed into per-bucket k-XADD
// engines. Add and Has are strongly linearizable; see the package comment
// for the discipline. Add must be called with thread identities whose lane
// (ID mod lanes) is not used concurrently by another goroutine — the
// single-writer-per-lane contract every fetch&add construction in this repo
// shares (lease identities from a pool when goroutines outnumber lanes).
// Has may be called from any thread.
type GSet struct {
	engine
	slotMask []uint64 // slotMask[s]: slot s's bit in every lane field of a word
}

// NewGSet builds a hashed grow-only set for lanes process lanes. The slot
// count (keys per bucket) doubles as the per-lane bitmap width, so it must
// be at most interleave.LaneBits; the lane count is unbounded (the codec
// stripes lanes over as many words as needed).
func NewGSet(w prim.World, name string, lanes int, opts ...Option) *GSet {
	cfg := configure("GSet", lanes, 16, opts)
	if cfg.slots < 1 || cfg.slots > interleave.LaneBits {
		panic(fmt.Sprintf("keyed: GSet slots %d outside [1, %d]", cfg.slots, interleave.LaneBits))
	}
	g := &GSet{slotMask: make([]uint64, cfg.slots)}
	codec := interleave.MustNewMultiPacked(lanes, cfg.slots)
	for s := range g.slotMask {
		for j := 0; j < codec.LanesPerWord(); j++ {
			g.slotMask[s] |= uint64(1) << uint(j*cfg.slots+s)
		}
	}
	g.init(w, name, lanes, cfg, codec, g, (lanes+63)/64)
	return g
}

// Add inserts key. The linearization point is the single fetch&add that sets
// the key's membership bit in the caller's lane (bumping the word's sequence
// field in the same step); a repeat add from the same lane is a no-op. The
// directory entry is inserted BEFORE the bit lands, which is what lets a
// reader commit a miss at a directory lookup: absence there proves no add of
// the key had reached its linearization point. Returns ErrFull when the
// key's bucket is out of slots (grow with Rehash and retry).
func (g *GSet) Add(t prim.Thread, key string) error {
	lane := t.ID() % g.lanes
	g.gate.RLock()
	defer g.gate.RUnlock()
	r, e, _, err := g.enter(t, key, KindNone)
	if err != nil || e.member(lane) {
		return err
	}
	r.word(g.codec.WordOf(lane)).FetchAddInt(t, g.codec.Spread(int64(1)<<uint(r.s), lane)+interleave.SeqIncrement)
	prim.MarkLinPoint(g.w, t)
	e.markMember(lane)
	r.epoch().FetchAddInt(t, 1)
	return nil
}

// Has reports key membership through the engine's validated read. A hit
// commits at the word read that observed the bit (membership is monotone,
// so no validation can retract it); a miss is committed by a directory miss
// or by the closing epoch re-read.
func (g *GSet) Has(t prim.Thread, key string) bool {
	v, _ := g.read(t, key)
	return v != 0
}

func (g *GSet) grow(*table, string) {}

func (g *GSet) collect(t prim.Thread, r ref, _ *entry) (int64, bool) {
	mask := g.slotMask[r.s]
	for wi := range r.tb.nw {
		if uint64(g.codec.Payload(r.word(wi).FetchAddInt(t, 0)))&mask != 0 {
			return 1, true
		}
	}
	return 0, false
}

// migrate sets the key's bit in lane 0 of the new generation: writers are
// excluded, so directory presence implies some lane's bit landed (claim and
// XADD share one gate-reader critical section).
func (g *GSet) migrate(t prim.Thread, e *entry, _, to ref) {
	to.word(g.codec.WordOf(0)).FetchAddInt(t,
		g.codec.Spread(int64(1)<<uint(to.s), 0)+interleave.SeqIncrement)
	e.markMember(0)
}

// member reports lane's shadow bit; lanes share its word (see entry).
func (e *entry) member(lane int) bool {
	return atomic.LoadInt64(&e.shadow[lane/64])&(1<<(lane%64)) != 0
}

func (e *entry) markMember(lane int) { atomic.OrInt64(&e.shadow[lane/64], 1<<(lane%64)) }
