package keyed

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// engine is the bucket table both keyed objects run on: the table pointer,
// the directory, the validated read, the rehash and the telemetry. GSet and
// MonotoneMap embed it and supply a layout, which decides what a key's
// fields hold and how they combine.
type engine struct {
	w     prim.World
	name  string
	lanes int
	cfg   config
	codec interleave.MultiPacked
	lay   layout

	table prim.AnyRegister // *table
	gate  sync.RWMutex     // writers share it; Rehash takes it exclusively
	// builds numbers every table build, a failed Rehash's included, so no
	// build reuses another's block names. Advanced under the gate.
	builds int64

	rehashes atomic.Int64
	retries  atomic.Int64
}

// layout is what one keyed object adds to the engine.
type layout interface {
	// grow allocates the object's own state for a new table generation,
	// under the block-name prefix of its words and epochs.
	grow(tb *table, prefix string)
	// collect reads key e's words in b and folds them into one value. hit
	// commits the value without the closing witness: it is true only for a
	// value no later write can retract.
	collect(t prim.Thread, b *bucket, e *entry) (v int64, hit bool)
	// migrate copies old entry oe's exact value into ne, its fresh claim in
	// bucket nb of the new generation. Writers are excluded.
	migrate(t prim.Thread, ob *bucket, oe *entry, nb *bucket, ne *entry)
}

type table struct {
	gen     int64 // completed rehash cutovers
	buckets []bucket
}

// bucket is one k-XADD engine. Its registers are views into its
// generation's blocks; its directory is outside the shared-memory model.
type bucket struct {
	words prim.FetchAddIntBlock
	epoch prim.FetchAddInt
	bound prim.AnyRegisterBlock // per slot; the map's grow fills it (see MonotoneMap)

	mu sync.RWMutex
	// dir[i] is the key in slot i, so dir[i].slot == i. Slots are handed
	// out in claim order and never freed; the slice is allocated at the
	// bucket's first claim with room for every slot.
	dir []*entry
}

type entry struct {
	key  string
	slot int
	kind Kind // the map's binding; KindNone in a GSet
	// shadow[l] mirrors what lane l's field holds for this key: the map's
	// value, or 1 once the set's bit is set. Each field has a single
	// writer (the lane owner), so the owner's private mirror is exact and
	// saves the pre-write word read on the hot path; only lane l's owner
	// (or Rehash, with writers excluded) ever touches shadow[l].
	shadow []int64
}

// configure applies opts over the defaults (with the object's own default
// slot count) and validates the shape both objects share. kind names the
// object in panics.
func configure(kind string, lanes, slots int, opts []Option) config {
	cfg := config{buckets: 8, slots: slots, width: 32, maxBuckets: 1 << 16}
	for _, o := range opts {
		o(&cfg)
	}
	if lanes < 1 {
		panic(fmt.Sprintf("keyed: %s lanes %d below 1", kind, lanes))
	}
	if cfg.buckets < 1 || cfg.maxBuckets < cfg.buckets {
		panic(fmt.Sprintf("keyed: %s buckets %d outside [1, %d]", kind, cfg.buckets, cfg.maxBuckets))
	}
	return cfg
}

// init installs the first table generation.
func (e *engine) init(w prim.World, name string, lanes int, cfg config, codec interleave.MultiPacked, lay layout) {
	e.w, e.name, e.lanes, e.cfg, e.codec, e.lay = w, name, lanes, cfg, codec, lay
	e.table = w.AnyRegister(name+".table", e.buildTable(0, cfg.buckets))
}

// buildTable allocates a bucket generation as one named block per field:
// bucket b's words are words[b*W : (b+1)*W] and its epoch is epoch[b].
func (e *engine) buildTable(gen int64, buckets int) *table {
	prefix := fmt.Sprintf("%s.g%d", e.name, e.builds)
	e.builds++
	nw := e.codec.Words()
	words := prim.FetchAddInts(e.w, prefix+".words", buckets*nw, 0)
	epochs := prim.FetchAddInts(e.w, prefix+".epoch", buckets, 0)
	tb := &table{gen: gen, buckets: make([]bucket, buckets)}
	for b := range tb.buckets {
		bk := &tb.buckets[b]
		bk.words = words.Slice(b*nw, (b+1)*nw)
		bk.epoch = epochs.At(b)
	}
	e.lay.grow(tb, prefix)
	return tb
}

func (tb *table) bucket(key string) *bucket {
	return &tb.buckets[int(Hash(key)%uint64(len(tb.buckets)))]
}

// claim returns key's directory entry in b, assigning the next free slot
// on first sight. A write's new entry is bound to kind, with a zeroed
// shadow and its own copy of key: the caller's key may view a buffer that
// is reused once the call returns (a server's request). Rehash passes the
// old entry as from, whose key, kind and shadow the new entry takes over.
// first reports that THIS call made the entry. The critical section
// performs no shared-memory (prim) step, so it never blocks across a
// scheduler yield point.
func (e *engine) claim(b *bucket, key string, kind Kind, from *entry) (en *entry, first bool, err error) {
	if en = b.lookup(key); en != nil {
		return en, false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if en = b.find(key); en != nil {
		return en, false, nil
	}
	if len(b.dir) >= e.cfg.slots {
		return nil, false, ErrFull
	}
	if b.dir == nil {
		b.dir = make([]*entry, 0, e.cfg.slots)
	}
	if from != nil {
		en = &entry{key: from.key, slot: len(b.dir), kind: from.kind, shadow: from.shadow}
	} else {
		en = &entry{key: strings.Clone(key), slot: len(b.dir), kind: kind, shadow: make([]int64, e.lanes)}
	}
	b.dir = append(b.dir, en)
	return en, true, nil
}

func (b *bucket) lookup(key string) *entry {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.find(key)
}

// find scans the directory for key; the caller holds b.mu.
func (b *bucket) find(key string) *entry {
	for _, en := range b.dir {
		if en.key == key {
			return en
		}
	}
	return nil
}

// enter starts a write of key: it reads the table pointer (the caller holds
// the gate shared) and claims key's entry in its bucket.
func (e *engine) enter(t prim.Thread, key string, kind Kind) (*bucket, *entry, bool, error) {
	b := e.table.ReadAny(t).(*table).bucket(key)
	en, first, err := e.claim(b, key, kind, nil)
	return b, en, first, err
}

// lookup reads the table pointer and finds key's entry (nil if absent).
func (e *engine) lookup(t prim.Thread, key string) (*bucket, *entry) {
	b := e.table.ReadAny(t).(*table).bucket(key)
	return b, b.lookup(key)
}

// read is the one validated read of both objects. A directory miss commits
// "absent": the entry is inserted before its first payload XADD, so no write
// of the key had linearized. Otherwise it snapshots the bucket epoch,
// collects the key's words and re-reads the epoch, retrying until the two
// reads are equal; the closing epoch read is the read's final shared step,
// which pins the collected value to a real instant (see the package
// comment). A collect hit commits at the word read that observed it. The
// table pointer is read fresh on every attempt; a rehash overlapping an
// attempt leaves the old generation frozen, so the epoch witness stays
// sound. It returns the collected value and key's entry, nil for a
// directory miss.
func (e *engine) read(t prim.Thread, key string) (int64, *entry) {
	for {
		b, en := e.lookup(t, key)
		if en == nil {
			return 0, nil
		}
		e1 := b.epoch.FetchAddInt(t, 0)
		v, hit := e.lay.collect(t, b, en)
		if hit || b.epoch.FetchAddInt(t, 0) == e1 {
			return v, en
		}
		e.retries.Add(1)
	}
}

// Rehash grows the object to the given bucket count (no-op if not larger,
// so concurrent growers don't compound). It blocks writers on the gate,
// claims every key of the frozen directory in a new bucket generation (one
// named block per field) and migrates its exact value, then flips the table
// pointer. Keys migrate bucket by bucket in slot order, so a table built from
// the same key sequence rehashes to the same slots every time. It is
// flip-after-migrate, so an acked write is either migrated exactly
// or lands in the new generation. On ErrFull from the target shape the old
// table stays installed, and a later Rehash builds under fresh names.
//
// Each new entry takes its old entry's shadow rather than a fresh copy.
// Sharing is safe. Writers are gate-excluded, so no lane owner touches a
// shadow until the flip, and after it only the new entry is written. The
// map's migrate copies each lane's exact field, which the shadow already
// mirrors. The set's migrate lands the key's bit in lane 0 and sets
// shadow[0]; any other lane's 1 still implies membership, which is all a
// set shadow guards (a repeat add from that lane stays a no-op). An ErrFull
// abort leaves the old table consistent for the same reasons: the map's
// shadows are unchanged, and a set entry only gains shadow[0] = 1 for a
// key that is already a member.
func (e *engine) Rehash(t prim.Thread, buckets int) error {
	if buckets < 1 || buckets > e.cfg.maxBuckets {
		return fmt.Errorf("keyed: bucket count %d outside [1, %d]", buckets, e.cfg.maxBuckets)
	}
	e.gate.Lock()
	defer e.gate.Unlock()
	old := e.table.ReadAny(t).(*table)
	if buckets <= len(old.buckets) {
		return nil
	}
	nt := e.buildTable(old.gen+1, buckets)
	for i := range old.buckets {
		ob := &old.buckets[i]
		for _, oe := range ob.dir {
			nb := nt.bucket(oe.key)
			ne, _, err := e.claim(nb, oe.key, oe.kind, oe)
			if err != nil {
				return err
			}
			e.lay.migrate(t, ob, oe, nb, ne)
		}
	}
	e.table.WriteAny(t, nt)
	e.rehashes.Add(1)
	return nil
}

// Buckets returns the current bucket count.
func (e *engine) Buckets(t prim.Thread) int {
	return len(e.table.ReadAny(t).(*table).buckets)
}

// Stats returns a telemetry snapshot.
func (e *engine) Stats(t prim.Thread) Stats {
	tb := e.table.ReadAny(t).(*table)
	st := Stats{
		Buckets:        len(tb.buckets),
		Slots:          e.cfg.slots,
		WordsPerBucket: e.codec.Words(),
		Packed:         e.codec.Words() == 1,
		Generation:     tb.gen,
		Rehashes:       e.rehashes.Load(),
		ReadRetries:    e.retries.Load(),
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
