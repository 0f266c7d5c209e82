package keyed

import (
	"fmt"
	"sync"
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
	w     prim.World
	name  string
	lanes int
	cfg   config

	codec      interleave.MultiPacked // lanes × slots-bit bitmap fields
	slotMask   []uint64               // slotMask[s]: slot s's bit in every lane field of a word
	guardWords int                    // ⌈lanes/64⌉ once-guard words per directory entry

	table prim.AnyRegister // *gsetTable
	gate  sync.RWMutex     // writers share it; Rehash takes it exclusively
	// builds numbers every table build, a failed Rehash's included, so no
	// build reuses another's block names. Advanced under the gate.
	builds int64

	rehashes atomic.Int64
	retries  atomic.Int64
}

type gsetTable struct {
	gen     int64 // completed rehash cutovers
	buckets []gsetBucket
}

type gsetBucket struct {
	words []prim.FetchAddInt
	epoch prim.FetchAddInt

	mu  sync.RWMutex
	dir map[string]*gsetEntry
}

type gsetEntry struct {
	slot  int
	added []atomic.Uint64 // per-lane once-guard bits: lane l's XADD happened
}

// NewGSet builds a hashed grow-only set for lanes process lanes. The slot
// count (keys per bucket) doubles as the per-lane bitmap width, so it must
// be at most interleave.LaneBits; the lane count is unbounded (the codec
// stripes lanes over as many words as needed).
func NewGSet(w prim.World, name string, lanes int, opts ...Option) *GSet {
	cfg := defaults()
	for _, o := range opts {
		o(&cfg)
	}
	if lanes < 1 {
		panic(fmt.Sprintf("keyed: GSet lanes %d below 1", lanes))
	}
	if cfg.slots < 1 || cfg.slots > interleave.LaneBits {
		panic(fmt.Sprintf("keyed: GSet slots %d outside [1, %d]", cfg.slots, interleave.LaneBits))
	}
	if cfg.buckets < 1 || cfg.maxBuckets < cfg.buckets {
		panic(fmt.Sprintf("keyed: GSet buckets %d outside [1, %d]", cfg.buckets, cfg.maxBuckets))
	}
	g := &GSet{
		w:          w,
		name:       name,
		lanes:      lanes,
		cfg:        cfg,
		codec:      interleave.MustNewMultiPacked(lanes, cfg.slots),
		guardWords: (lanes + 63) / 64,
	}
	g.slotMask = make([]uint64, cfg.slots)
	for s := 0; s < cfg.slots; s++ {
		var m uint64
		for j := 0; j < g.codec.LanesPerWord(); j++ {
			m |= uint64(1) << uint(j*cfg.slots+s)
		}
		g.slotMask[s] = m
	}
	g.table = w.AnyRegister(name+".table", g.buildTable(0, cfg.buckets))
	return g
}

// buildTable allocates a bucket generation as one named block per field:
// bucket b's words are words[b*W : (b+1)*W] and its epoch is epoch[b].
func (g *GSet) buildTable(gen int64, buckets int) *gsetTable {
	prefix := fmt.Sprintf("%s.g%d", g.name, g.builds)
	g.builds++
	nw := g.codec.Words()
	words := prim.FetchAddInts(g.w, prefix+".words", buckets*nw, 0)
	epochs := prim.FetchAddInts(g.w, prefix+".epoch", buckets, 0)
	tb := &gsetTable{gen: gen, buckets: make([]gsetBucket, buckets)}
	for b := range tb.buckets {
		bk := &tb.buckets[b]
		bk.words = words[b*nw : (b+1)*nw : (b+1)*nw]
		bk.epoch = epochs[b]
		bk.dir = make(map[string]*gsetEntry)
	}
	return tb
}

func (tb *gsetTable) bucket(key string) *gsetBucket {
	return &tb.buckets[int(Hash(key)%uint64(len(tb.buckets)))]
}

// claim returns key's directory entry, assigning the next free slot on first
// sight. The critical section performs no shared-memory (prim) step, so it
// never blocks across a scheduler yield point.
func (b *gsetBucket) claim(key string, slots, guardWords int) (*gsetEntry, error) {
	b.mu.RLock()
	e := b.dir[key]
	b.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.dir[key]; e != nil {
		return e, nil
	}
	if len(b.dir) >= slots {
		return nil, ErrFull
	}
	e = &gsetEntry{slot: len(b.dir), added: make([]atomic.Uint64, guardWords)}
	b.dir[key] = e
	return e, nil
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
	tb := g.table.ReadAny(t).(*gsetTable)
	b := tb.bucket(key)
	e, err := b.claim(key, g.cfg.slots, g.guardWords)
	if err != nil {
		return err
	}
	gi, bit := lane/64, uint64(1)<<uint(lane%64)
	if e.added[gi].Load()&bit != 0 {
		return nil
	}
	wi := g.codec.WordOf(lane)
	b.words[wi].FetchAddInt(t, g.codec.Spread(int64(1)<<uint(e.slot), lane)+interleave.SeqIncrement)
	prim.MarkLinPoint(g.w, t)
	e.added[gi].Or(bit)
	b.epoch.FetchAddInt(t, 1)
	return nil
}

// Has reports key membership. A hit commits at the word read that observed
// the bit (membership is monotone, so no validation can retract it). A miss
// is committed by a directory miss or by the closing epoch re-read of a
// validated collect — the op's final shared step. The table pointer is read
// fresh on every attempt; a rehash overlapping an attempt leaves the old
// generation frozen, so the epoch witness stays sound (see the package
// comment).
func (g *GSet) Has(t prim.Thread, key string) bool {
	for {
		tb := g.table.ReadAny(t).(*gsetTable)
		found, ok := g.hasIn(t, tb, key)
		if found {
			return true
		}
		if ok {
			return false
		}
		g.retries.Add(1)
	}
}

func (g *GSet) hasIn(t prim.Thread, tb *gsetTable, key string) (found, ok bool) {
	b := tb.bucket(key)
	b.mu.RLock()
	e := b.dir[key]
	b.mu.RUnlock()
	if e == nil {
		return false, true
	}
	mask := g.slotMask[e.slot]
	e1 := b.epoch.FetchAddInt(t, 0)
	for wi := range b.words {
		if mpPayload(g.codec, b.words[wi].FetchAddInt(t, 0))&mask != 0 {
			return true, true
		}
	}
	if b.epoch.FetchAddInt(t, 0) != e1 {
		return false, false
	}
	return false, true
}

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

// Rehash grows the set to the given bucket count (no-op if not larger, so
// concurrent growers don't compound). It blocks writers on the gate, copies
// the frozen directory into a new bucket generation (one named block per
// field), then flips the table pointer — flip-after-migrate, so an acked add
// is either migrated exactly or lands in the new generation. On ErrFull from
// the target shape the old table stays installed untouched, and a later
// Rehash builds under fresh names.
func (g *GSet) Rehash(t prim.Thread, buckets int) error {
	if buckets < 1 || buckets > g.cfg.maxBuckets {
		return fmt.Errorf("keyed: bucket count %d outside [1, %d]", buckets, g.cfg.maxBuckets)
	}
	g.gate.Lock()
	defer g.gate.Unlock()
	old := g.table.ReadAny(t).(*gsetTable)
	if buckets <= len(old.buckets) {
		return nil
	}
	nt := g.buildTable(old.gen+1, buckets)
	for i := range old.buckets {
		for key := range old.buckets[i].dir {
			nb := nt.bucket(key)
			ne, err := nb.claim(key, g.cfg.slots, g.guardWords)
			if err != nil {
				return err
			}
			// Writers are excluded, so directory presence implies the bit
			// landed (claim and XADD share one gate-reader critical section).
			nb.words[g.codec.WordOf(0)].FetchAddInt(t,
				g.codec.Spread(int64(1)<<uint(ne.slot), 0)+interleave.SeqIncrement)
			ne.added[0].Or(1)
		}
	}
	g.table.WriteAny(t, nt)
	g.rehashes.Add(1)
	return nil
}

// Buckets returns the current bucket count.
func (g *GSet) Buckets(t prim.Thread) int {
	return len(g.table.ReadAny(t).(*gsetTable).buckets)
}

// Stats returns a telemetry snapshot.
func (g *GSet) Stats(t prim.Thread) Stats {
	tb := g.table.ReadAny(t).(*gsetTable)
	st := Stats{
		Buckets:        len(tb.buckets),
		Slots:          g.cfg.slots,
		WordsPerBucket: g.codec.Words(),
		Packed:         g.codec.Words() == 1,
		Generation:     tb.gen,
		Rehashes:       g.rehashes.Load(),
		ReadRetries:    g.retries.Load(),
	}
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.RLock()
		st.Keys += len(b.dir)
		b.mu.RUnlock()
		st.EpochAnnounces += b.epoch.FetchAddInt(t, 0)
	}
	return st
}
