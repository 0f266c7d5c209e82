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
	w      prim.World
	name   string
	lanes  int
	cfg    config
	codec  interleave.MultiPacked
	lay    layout
	shadow int // a new entry's shadow words: one per lane (map), per 64 lanes (set)

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
	// collect reads key e's words at r and folds them into one value. hit
	// commits the value without the closing witness: it is true only for a
	// value no later write can retract.
	collect(t prim.Thread, r ref, e *entry) (v int64, hit bool)
	// migrate copies key e's exact value from its place in the old
	// generation to its place in the new one. Writers are excluded.
	migrate(t prim.Thread, e *entry, from, to ref)
}

// table is one bucket generation. Its registers are one named block per
// field, addressed by bucket index: bucket b's words are words[b*nw :
// (b+1)*nw], its epoch is epochs[b], and the map's bound flag of slot s is
// bound[b*slots+s]. The directories are outside the shared-memory model.
type table struct {
	gen       int64 // completed rehash cutovers
	nw, slots int   // words and slots per bucket
	buckets   []bucket
	words     prim.FetchAddIntBlock
	epochs    prim.FetchAddIntBlock
	bound     prim.AnyRegisterBlock // the map's grow fills it (see MonotoneMap)
}

// bucket is one k-XADD engine's directory. Its registers live in its
// table's blocks.
type bucket struct {
	mu sync.Mutex // serializes claims; lookups take no lock
	// n counts the directory's entries: dir[i] is the key in slot i and
	// tags[i] is its hash tag, which a scan compares before dereferencing
	// the entry. Slots are handed out in claim order and never freed. Both
	// arrays are allocated at the bucket's first claim with room for every
	// slot, and a claim writes entry i before it raises n past i, so a lookup
	// that loads n scans dir[:n] and tags[:n] lock-free.
	n    atomic.Int32
	dir  []*entry
	tags []uint8
}

// ref is where a key lives in one table generation: slot s of bucket b.
type ref struct {
	tb   *table
	b, s int
}

func (r ref) word(i int) prim.FetchAddInt { return r.tb.words.At(r.b*r.tb.nw + i) }
func (r ref) epoch() prim.FetchAddInt     { return r.tb.epochs.At(r.b) }
func (r ref) bound() prim.AnyRegister     { return r.tb.bound.At(r.b*r.tb.slots + r.s) }

// entry is a key's identity, independent of its table generation: its slot
// is its index in the directory that holds it, so Rehash hands the same
// entry to the new generation.
type entry struct {
	key  string
	kind Kind // the map's binding; KindNone in a GSet
	// shadow mirrors what each lane's field holds for this key: the map's
	// value in shadow[l], the set's bit as bit l%64 of shadow[l/64]. Each
	// field has a single writer (the lane owner), so the owner's private
	// mirror is exact and saves the pre-write word read on the hot path; only
	// lane l's owner (or Rehash, with writers excluded) ever changes lane
	// l's part. The set's lanes share a word, so it is read and set
	// atomically.
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
func (e *engine) init(w prim.World, name string, lanes int, cfg config, codec interleave.MultiPacked, lay layout, shadow int) {
	e.w, e.name, e.lanes, e.cfg, e.codec, e.lay, e.shadow = w, name, lanes, cfg, codec, lay, shadow
	e.table = w.AnyRegister(name+".table", e.buildTable(0, cfg.buckets))
}

// buildTable allocates a bucket generation as one named block per field.
func (e *engine) buildTable(gen int64, buckets int) *table {
	prefix := fmt.Sprintf("%s.g%d", e.name, e.builds)
	e.builds++
	nw := e.codec.Words()
	tb := &table{
		gen: gen, nw: nw, slots: e.cfg.slots,
		buckets: make([]bucket, buckets),
		words:   prim.FetchAddInts(e.w, prefix+".words", buckets*nw, 0),
		epochs:  prim.FetchAddInts(e.w, prefix+".epoch", buckets, 0),
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

// find returns the place and entry of key, whose hash is h, in tb, or a nil
// entry. It scans the first candidate, then the second, so a claim may land
// between the two scans; a miss in both is still a sound "absent" at the
// first scan. A key has one entry, in one candidate, and a directory is
// append-only within its generation: had the key been in the second
// candidate at the first scan, the second scan would find it, and the first
// scan saw it absent from the first. So at the instant of the first scan the
// key was in neither directory, and since its entry is inserted before its
// first payload XADD, no write of it had linearized.
func (tb *table) find(key string, h uint64) (ref, *entry) {
	i1, i2 := tb.candidates(h)
	if s, en := tb.buckets[i1].scan(key, tag(h)); en != nil {
		return ref{tb, i1, s}, en
	}
	if i2 != i1 {
		if s, en := tb.buckets[i2].scan(key, tag(h)); en != nil {
			return ref{tb, i2, s}, en
		}
	}
	return ref{}, nil
}

// claim returns the place and directory entry of key, whose hash is h, in
// tb, making the entry on first sight. It locks both candidate buckets, in
// bucket-index order, and inserts the key into the one with fewer entries,
// the first candidate on a tie ("balanced allocations": two choices keep
// the fullest bucket within O(log log n) of the mean, where one choice lets
// it drift O(log n / log log n) above it). ErrFull means both candidates are
// full. first reports that THIS call made the entry. The critical section
// performs no shared-memory (prim) step, so it never blocks across a
// scheduler yield point. A new entry has a zeroed shadow and its own copy
// of key: the caller's key may view a buffer that is reused once the call
// returns (a server's request).
func (e *engine) claim(tb *table, key string, h uint64, kind Kind) (r ref, en *entry, first bool, err error) {
	if r, en = tb.find(key, h); en != nil {
		return r, en, false, nil
	}
	i1, i2 := tb.candidates(h)
	lo, hi := min(i1, i2), max(i1, i2)
	tb.buckets[lo].mu.Lock()
	defer tb.buckets[lo].mu.Unlock()
	if hi != lo {
		tb.buckets[hi].mu.Lock()
		defer tb.buckets[hi].mu.Unlock()
	}
	if r, en = tb.find(key, h); en != nil {
		return r, en, false, nil
	}
	if tb.buckets[i2].n.Load() < tb.buckets[i1].n.Load() {
		i1 = i2
	}
	if tb.full(i1) {
		return ref{}, nil, false, ErrFull
	}
	en = &entry{key: strings.Clone(key), kind: kind, shadow: make([]int64, e.shadow)}
	return tb.insert(i1, en, h), en, true, nil
}

// full reports whether bucket b of tb has no free slot.
func (tb *table) full(b int) bool { return int(tb.buckets[b].n.Load()) >= tb.slots }

// insert gives en, whose key hashes to h, the next free slot of bucket b,
// which must not be full. The caller holds the bucket's lock or is the only
// one who can reach it (a rehash's new table before the flip).
func (tb *table) insert(b int, en *entry, h uint64) ref {
	bk := &tb.buckets[b]
	s := int(bk.n.Load())
	if bk.dir == nil {
		bk.dir = make([]*entry, tb.slots)
		bk.tags = make([]uint8, tb.slots)
	}
	bk.dir[s], bk.tags[s] = en, tag(h)
	bk.n.Store(int32(s + 1))
	return ref{tb, b, s}
}

// entries returns the directory's entries in slot order.
func (b *bucket) entries() []*entry { return b.dir[:b.n.Load()] }

// scan looks for key among the directory entries tagged tg and returns its
// slot and entry, or a nil entry. It needs no lock: the arrays are read
// only below the count, which a claim raises after writing the entry.
func (b *bucket) scan(key string, tg uint8) (int, *entry) {
	n := b.n.Load()
	if n == 0 { // b.dir is written at the first claim, before n is raised
		return 0, nil
	}
	dir, tags := b.dir[:n], b.tags[:n]
	for i := range tags {
		if tags[i] == tg && dir[i].key == key {
			return i, dir[i]
		}
	}
	return 0, nil
}

// enter starts a write of key: it reads the table pointer (the caller holds
// the gate shared) and claims key's entry in one of its candidate buckets.
func (e *engine) enter(t prim.Thread, key string, kind Kind) (ref, *entry, bool, error) {
	return e.claim(e.table.ReadAny(t).(*table), key, Hash(key), kind)
}

// lookup reads the table pointer and finds key's place and entry (a nil
// entry if absent).
func (e *engine) lookup(t prim.Thread, key string) (ref, *entry) {
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
		r, en := e.table.ReadAny(t).(*table).find(key, h)
		if en == nil {
			return 0, nil
		}
		ep := r.epoch()
		e1 := ep.FetchAddInt(t, 0)
		v, hit := e.lay.collect(t, r, en)
		if hit || ep.FetchAddInt(t, 0) == e1 {
			return v, en
		}
		e.retries.Add(1)
	}
}

// Rehash grows the object to the given bucket count (no-op if not larger,
// so concurrent growers don't compound). It blocks writers on the gate,
// places every entry of the frozen directory in a new bucket generation
// (one named block per field) and migrates its exact value, then flips the
// table pointer. Keys migrate bucket by bucket in slot order, each to the
// candidate of the same side it held (see place), so a table built from the
// same key sequence rehashes to the same buckets and slots every time, and
// a rehash to a multiple of the bucket count always fits. It is
// flip-after-migrate, so an acked write is either migrated exactly or lands
// in the new generation. On ErrFull from the target shape the old table
// stays installed, and a later Rehash builds under fresh names.
//
// The new directories hold the old entries themselves, shadows included.
// Writers are gate-excluded, so no lane owner touches a shadow until the
// flip, and after it only the new generation is written. The map's migrate
// copies each lane's exact field, which the shadow already mirrors. The
// set's migrate lands the key's bit in lane 0 and sets lane 0's shadow bit;
// any other lane's bit still implies membership, which is all a set shadow
// guards (a repeat add from that lane stays a no-op). An ErrFull abort
// leaves the old table consistent for the same reasons: the map's shadows
// are unchanged, and a set entry only gains lane 0's bit for a member.
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
		for s, en := range old.buckets[i].entries() {
			to, err := place(old, i, nt, en)
			if err != nil {
				return err
			}
			e.lay.migrate(t, en, ref{old, i, s}, to)
		}
	}
	e.table.WriteAny(t, nt)
	e.rehashes.Add(1)
	return nil
}

// place gives en, which sits in bucket i of old, a slot in nt. The key
// keeps its side: if bucket i is its first candidate in old it goes to its
// first candidate in nt, otherwise to its second. When len(nt.buckets) is a
// multiple of len(old.buckets) both of a key's candidates in nt are
// congruent to its old ones modulo len(old.buckets), so every new bucket
// takes its keys from one old bucket and never overflows. Greedy two-choice
// placement has no such bound: it can fill both candidates of some key, and
// since a rehash is deterministic the same doubling would fail every time.
// For any other count a key whose side is full takes its other candidate;
// ErrFull means both are full.
func place(old *table, i int, nt *table, en *entry) (ref, error) {
	h := Hash(en.key)
	o1, _ := old.candidates(h)
	n1, n2 := nt.candidates(h)
	if i != o1 {
		n1, n2 = n2, n1
	}
	if nt.full(n1) {
		if nt.full(n2) {
			return ref{}, ErrFull
		}
		n1 = n2
	}
	return nt.insert(n1, en, h), nil
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
		st.Keys += int(tb.buckets[i].n.Load())
		st.EpochAnnounces += tb.epochs.At(i).FetchAddInt(t, 0)
	}
	return st
}
