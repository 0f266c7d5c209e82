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

	mu sync.Mutex // serializes claims; lookups take no lock
	// n counts the directory's entries: dir[i] is the key in slot i (so
	// dir[i].slot == i) and tags[i] is its hash tag, which a scan compares
	// before dereferencing the entry. Slots are handed out in claim order and
	// never freed. Both arrays are allocated at the bucket's first claim with
	// room for every slot, and a claim writes entry i before it raises n past
	// i, so a lookup that loads n scans dir[:n] and tags[:n] lock-free.
	n    atomic.Int32
	dir  []*entry
	tags []uint8
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

// candidates returns the indices of the two buckets of tb a key with hash
// h may live in: h mod n and a finalizer of h mod n. The second is
// independent of the first and of the routing partition (h mod the
// partition count), which fixes the first one's residue on a backend that
// owns only some partitions.
func (tb *table) candidates(h uint64) (int, int) {
	n := uint64(len(tb.buckets))
	return int(h % n), int(fmix64(h) % n)
}

// tag is a key's directory tag: the top byte of its hash.
func tag(h uint64) uint8 { return uint8(h >> 56) }

// fmix64 is murmur3's 64-bit finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// find returns the bucket and entry of key, whose hash is h, in tb, or nil,
// nil. It scans the first candidate, then the second, so a claim may land
// between the two scans; a miss in both is still a sound "absent" at the
// first scan. A key has one entry, in one candidate, and a directory is
// append-only within its generation: had the key been in the second
// candidate at the first scan, the second scan would find it, and the first
// scan saw it absent from the first. So at the instant of the first scan the
// key was in neither directory, and since its entry is inserted before its
// first payload XADD, no write of it had linearized.
func (tb *table) find(key string, h uint64) (*bucket, *entry) {
	i1, i2 := tb.candidates(h)
	b := &tb.buckets[i1]
	if en := b.scan(key, tag(h)); en != nil {
		return b, en
	}
	if i2 != i1 {
		b = &tb.buckets[i2]
		if en := b.scan(key, tag(h)); en != nil {
			return b, en
		}
	}
	return nil, nil
}

// claim returns the bucket and directory entry of key, whose hash is h, in
// tb, assigning a slot on first sight. It locks both candidate buckets, in
// bucket-index order, and inserts the key into the one with fewer entries,
// the first candidate on a tie ("balanced allocations": two choices keep
// the fullest bucket within O(log log n) of the mean, where one choice lets
// it drift O(log n / log log n) above it). ErrFull means both candidates are
// full. first reports that THIS call made the entry. The critical section
// performs no shared-memory (prim) step, so it never blocks across a
// scheduler yield point.
func (e *engine) claim(tb *table, key string, h uint64, kind Kind) (b *bucket, en *entry, first bool, err error) {
	if b, en = tb.find(key, h); en != nil {
		return b, en, false, nil
	}
	i1, i2 := tb.candidates(h)
	b1, b2 := &tb.buckets[i1], &tb.buckets[i2]
	lo, hi := b1, b2
	if i2 < i1 {
		lo, hi = b2, b1
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	if hi != lo {
		hi.mu.Lock()
		defer hi.mu.Unlock()
	}
	if b, en = tb.find(key, h); en != nil {
		return b, en, false, nil
	}
	b = b1
	if b2.n.Load() < b1.n.Load() {
		b = b2
	}
	if en, err = e.insert(b, key, h, kind, nil); err != nil {
		return nil, nil, false, err
	}
	return b, en, true, nil
}

// insert gives key, whose hash is h, the next free slot of b, or fails with
// ErrFull. The caller holds b.mu or is the only one who can reach b (a
// rehash's new table before the flip). A write's new entry is bound to
// kind, with a zeroed shadow and its own copy of key: the caller's key may
// view a buffer that is reused once the call returns (a server's request).
// Rehash passes the old entry as from, whose key, kind and shadow the new
// entry takes over.
func (e *engine) insert(b *bucket, key string, h uint64, kind Kind, from *entry) (*entry, error) {
	slot := int(b.n.Load())
	if slot >= e.cfg.slots {
		return nil, ErrFull
	}
	if b.dir == nil {
		b.dir = make([]*entry, e.cfg.slots)
		b.tags = make([]uint8, e.cfg.slots)
	}
	var en *entry
	if from != nil {
		en = &entry{key: from.key, slot: slot, kind: from.kind, shadow: from.shadow}
	} else {
		en = &entry{key: strings.Clone(key), slot: slot, kind: kind, shadow: make([]int64, e.lanes)}
	}
	b.dir[slot], b.tags[slot] = en, tag(h)
	b.n.Store(int32(slot + 1))
	return en, nil
}

// entries returns the directory's entries in slot order.
func (b *bucket) entries() []*entry {
	n := b.n.Load()
	if n == 0 {
		return nil
	}
	return b.dir[:n]
}

// scan looks for key among the directory entries tagged tg. It needs no
// lock: the arrays are read only below the count, which a claim raises
// after writing the entry.
func (b *bucket) scan(key string, tg uint8) *entry {
	n := b.n.Load()
	if n == 0 {
		return nil
	}
	dir, tags := b.dir[:n], b.tags[:n]
	for i := range tags {
		if tags[i] == tg && dir[i].key == key {
			return dir[i]
		}
	}
	return nil
}

// enter starts a write of key: it reads the table pointer (the caller holds
// the gate shared) and claims key's entry in one of its candidate buckets.
func (e *engine) enter(t prim.Thread, key string, kind Kind) (*bucket, *entry, bool, error) {
	return e.claim(e.table.ReadAny(t).(*table), key, Hash(key), kind)
}

// lookup reads the table pointer and finds key's bucket and entry (nil, nil
// if absent).
func (e *engine) lookup(t prim.Thread, key string) (*bucket, *entry) {
	return e.table.ReadAny(t).(*table).find(key, Hash(key))
}

// read is the one validated read of both objects. A miss in both candidate
// directories commits "absent" at the first scan (see find). Otherwise it
// snapshots the bucket epoch, collects the key's words and re-reads the
// epoch, retrying until the two reads are equal; the closing epoch read is
// the read's final shared step, which pins the collected value to a real
// instant (see the package comment). A collect hit commits at the word read
// that observed it. The table pointer is read fresh on every attempt; a
// rehash overlapping an attempt leaves the old generation frozen, so the
// epoch witness stays sound. It returns the collected value and key's
// entry, nil for a directory miss.
func (e *engine) read(t prim.Thread, key string) (int64, *entry) {
	h := Hash(key)
	for {
		b, en := e.table.ReadAny(t).(*table).find(key, h)
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
// pointer. Keys migrate bucket by bucket in slot order, each to the
// candidate of the same side it held (see migrateSlot), so a table built
// from the same key sequence rehashes to the same buckets and slots every
// time, and a rehash to a multiple of the bucket count always fits. It is
// flip-after-migrate, so an acked write is either migrated exactly or lands
// in the new generation. On ErrFull from the target shape the old table
// stays installed, and a later Rehash builds under fresh names.
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
		for _, oe := range ob.entries() {
			nb, ne, err := e.migrateSlot(old, i, nt, oe)
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

// migrateSlot gives oe, which sits in bucket i of old, a slot in nt. The key
// keeps its side: if bucket i is its first candidate in old it goes to its
// first candidate in nt, otherwise to its second. When len(nt.buckets) is a
// multiple of len(old.buckets) both of a key's candidates in nt are
// congruent to its old ones modulo len(old.buckets), so every new bucket
// takes its keys from one old bucket and never overflows. Greedy two-choice
// placement has no such bound: it can fill both candidates of some key, and
// since a rehash is deterministic the same doubling would fail every time.
// For any other count a key whose side is full takes its other candidate;
// ErrFull means both are full.
func (e *engine) migrateSlot(old *table, i int, nt *table, oe *entry) (*bucket, *entry, error) {
	h := Hash(oe.key)
	o1, _ := old.candidates(h)
	n1, n2 := nt.candidates(h)
	if i != o1 {
		n1, n2 = n2, n1
	}
	nb := &nt.buckets[n1]
	ne, err := e.insert(nb, oe.key, h, oe.kind, oe)
	if err == ErrFull && n2 != n1 {
		nb = &nt.buckets[n2]
		ne, err = e.insert(nb, oe.key, h, oe.kind, oe)
	}
	return nb, ne, err
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
		st.Keys += int(b.n.Load())
		st.EpochAnnounces += b.epoch.FetchAddInt(t, 0)
	}
	return st
}
