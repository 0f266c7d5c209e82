package keyed

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// MonotoneMap is a strongly-linearizable map from string keys to monotone
// values. A key is bound at first write to KindCounter (Inc/IncBy, read as
// the sum of per-lane fields) or KindMax (Max, read as the max of per-lane
// fields); the other kind's writes then return ErrKindMismatch. Keys hash to
// buckets; inside a bucket a key owns `lanes` contiguous fields of the
// MultiPacked engine — one per process lane — so every write is one exact
// in-field fetch&add plus the bucket epoch announce, and Get is an
// epoch-validated collect of at most ceil(lanes/lanesPerWord) words.
//
// Key EXISTENCE lives in the payload, never in the directory alone: a
// reader that trusted a bare directory claim could answer "present, value 0"
// for a key whose first write has not linearized — a genuine linearizability
// violation the model checks caught. Counters are existence-carrying for
// free (the folded sum is >= 1 once any inc lands); max registers store v+1
// in their fields so a landed Max(k, 0) is distinguishable from no write at
// all. A validated all-zero collect therefore COMMITS ErrUnknownKey: at the
// closing witness instant no first write had landed. The +1 bias is why the
// client value cap is FieldCap = 2^width - 2, one unit under the field mask,
// for both kinds.
//
// The same claim-precedes-landing window makes an EAGER kind refusal
// unsound: a refusal observed from a claim whose binding write has not yet
// landed commits "key bound" while the refused process's next get still
// commits "unknown" — an un-linearizable trio pinned by the
// KindRaceWithReader model check. The refusal therefore AWAITS the slot's
// bound flag (written by the binder right after its payload XADD) before
// returning ErrKindMismatch: a weak-fairness conditional read bounded by
// the binder's two-step claim→XADD→flag window, the same primitive the
// migration protocol uses to wait for a generation flip.
//
// Writers must respect the single-writer-per-lane contract (thread ID mod
// lanes); Get may run on any thread.
type MonotoneMap struct {
	w     prim.World
	name  string
	lanes int
	cfg   config

	codec interleave.MultiPacked // slots*lanes fields × width bits
	mask  int64                  // per-field stored cap: 1<<width - 1; client cap is mask-1

	table prim.AnyRegister // *mapTable
	gate  sync.RWMutex
	// builds numbers every table build, a failed Rehash's included, so no
	// build reuses another's block names. Advanced under the gate.
	builds int64

	rehashes atomic.Int64
	retries  atomic.Int64
}

type mapTable struct {
	gen     int64 // completed rehash cutovers
	buckets []mapBucket
}

type mapBucket struct {
	words []prim.FetchAddInt
	epoch prim.FetchAddInt
	// bound[s] is slot s's landed flag: written true by the binding first
	// writer right after its payload XADD. A conflicting-kind writer AWAITS
	// it before returning ErrKindMismatch, so the refusal — which commits
	// "key is bound" — linearizes after the binding write's linearization
	// point, never after a mere directory claim (see the type comment).
	bound []prim.AnyRegister

	mu  sync.RWMutex
	dir map[string]*mapEntry
}

type mapEntry struct {
	slot int
	kind Kind
	// shadow[l] mirrors lane l's field value. Each field has a single
	// writer (the lane owner), so the owner's private mirror is exact and
	// saves the pre-write word read on the hot path; only slot l's owner
	// ever touches shadow[l].
	shadow []int64
}

// NewMonotoneMap builds a keyed monotone map for lanes process lanes.
func NewMonotoneMap(w prim.World, name string, lanes int, opts ...Option) *MonotoneMap {
	cfg := defaults()
	cfg.slots = 8 // denser fields than a GSet bucket: slots*lanes of them
	for _, o := range opts {
		o(&cfg)
	}
	if lanes < 1 {
		panic(fmt.Sprintf("keyed: MonotoneMap lanes %d < 1", lanes))
	}
	if cfg.slots < 1 {
		panic(fmt.Sprintf("keyed: MonotoneMap slots %d < 1", cfg.slots))
	}
	if cfg.width < 2 || cfg.width > interleave.LaneBits {
		// Width 1 leaves no room for the max registers' +1 existence bias
		// (client cap would be 0).
		panic(fmt.Sprintf("keyed: MonotoneMap width %d outside [2, %d]", cfg.width, interleave.LaneBits))
	}
	if cfg.buckets < 1 || cfg.maxBuckets < cfg.buckets {
		panic(fmt.Sprintf("keyed: MonotoneMap buckets %d outside [1, %d]", cfg.buckets, cfg.maxBuckets))
	}
	m := &MonotoneMap{
		w:     w,
		name:  name,
		lanes: lanes,
		cfg:   cfg,
		codec: interleave.MustNewMultiPacked(cfg.slots*lanes, cfg.width),
		mask:  int64(1)<<uint(cfg.width) - 1,
	}
	m.table = w.AnyRegister(name+".table", m.buildTable(0, cfg.buckets))
	return m
}

// buildTable allocates a bucket generation as one named block per field:
// bucket b's words are words[b*W : (b+1)*W], its epoch is epoch[b] and its
// bound flags are bound[b*slots : (b+1)*slots].
func (m *MonotoneMap) buildTable(gen int64, buckets int) *mapTable {
	prefix := fmt.Sprintf("%s.g%d", m.name, m.builds)
	m.builds++
	nw, ns := m.codec.Words(), m.cfg.slots
	words := prim.FetchAddInts(m.w, prefix+".words", buckets*nw, 0)
	epochs := prim.FetchAddInts(m.w, prefix+".epoch", buckets, 0)
	bound := prim.AnyRegisters(m.w, prefix+".bound", buckets*ns, false)
	tb := &mapTable{gen: gen, buckets: make([]mapBucket, buckets)}
	for b := range tb.buckets {
		bk := &tb.buckets[b]
		bk.words = words[b*nw : (b+1)*nw : (b+1)*nw]
		bk.epoch = epochs[b]
		bk.bound = bound[b*ns : (b+1)*ns : (b+1)*ns]
		bk.dir = make(map[string]*mapEntry)
	}
	return tb
}

func (tb *mapTable) bucket(key string) *mapBucket {
	return &tb.buckets[int(Hash(key)%uint64(len(tb.buckets)))]
}

// claim resolves key to its directory entry, inserting a fresh one bound to
// kind if the key is new. The second return reports that THIS call bound the
// key: the caller is then the binding first writer and must land its payload
// XADD and set the slot's bound flag. Kind checking is the caller's job —
// the conflicting-kind refusal needs the await discipline (see mapBucket).
func (b *mapBucket) claim(key string, slots, lanes int, kind Kind) (*mapEntry, bool, error) {
	b.mu.RLock()
	e := b.dir[key]
	b.mu.RUnlock()
	if e != nil {
		return e, false, nil
	}
	b.mu.Lock()
	if e = b.dir[key]; e != nil {
		b.mu.Unlock()
		return e, false, nil
	}
	if len(b.dir) >= slots {
		b.mu.Unlock()
		return nil, false, ErrFull
	}
	e = &mapEntry{slot: len(b.dir), kind: kind, shadow: make([]int64, lanes)}
	b.dir[key] = e
	b.mu.Unlock()
	return e, true, nil
}

// awaitBound blocks until slot's binding first write has landed. The wait is
// a weak-fairness conditional read (prim.AwaitAny — one un-enabled step in
// the simulated world, a read spin in the real one), bounded by the binder's
// claim→XADD→flag window of two shared steps. Pattern precedent: the
// migration protocol's wait-for-generation-flip.
func (b *mapBucket) awaitBound(w prim.World, t prim.Thread, slot int) {
	prim.AwaitAny(w, t, b.bound[slot], func(v any) bool { return v == true })
}

// Inc increments key's counter by one.
func (m *MonotoneMap) Inc(t prim.Thread, key string) error { return m.IncBy(t, key, 1) }

// IncBy adds d >= 1 to key's counter, binding the key to KindCounter on
// first write. The linearization point is the in-field fetch&add; the lane's
// current value comes from its shadow mirror, which is exact because the
// field has a single writer (this lane). Returns ErrBudget when the lane's
// field cannot absorb d.
func (m *MonotoneMap) IncBy(t prim.Thread, key string, d int64) error {
	if d < 1 || d > m.mask-1 {
		return ErrRange
	}
	lane := t.ID() % m.lanes
	m.gate.RLock()
	defer m.gate.RUnlock()
	tb := m.table.ReadAny(t).(*mapTable)
	b := tb.bucket(key)
	e, first, err := b.claim(key, m.cfg.slots, m.lanes, KindCounter)
	if err != nil {
		return err
	}
	if e.kind != KindCounter {
		// The refusal commits "key is bound to the other kind", so it must
		// linearize after the binding first write — which may not have
		// landed yet (the directory claim precedes the binder's payload
		// XADD). Refusing early is the un-linearizable trio the
		// KindRaceWithReader model check pins: refusal says bound, the
		// refused process's next get still says unknown.
		b.awaitBound(m.w, t, e.slot)
		return ErrKindMismatch
	}
	cur := e.shadow[lane]
	if cur+d > m.mask-1 {
		return ErrBudget
	}
	pl := e.slot*m.lanes + lane
	b.words[m.codec.WordOf(pl)].FetchAddInt(t, m.codec.FieldDelta(cur, cur+d, pl))
	prim.MarkLinPoint(m.w, t)
	e.shadow[lane] = cur + d
	if first {
		b.bound[e.slot].WriteAny(t, true)
	}
	b.epoch.FetchAddInt(t, 1)
	return nil
}

// Max raises key's max register to v, binding the key to KindMax on first
// write. The field stores v+1 (the existence bias — see the type comment),
// so even Max(k, 0) on a fresh key lands a real fetch&add and the key's
// existence is readable from the payload. A write at or below the lane's
// current value is a no-op (the lane's own field already dominates it, so
// the combined max cannot drop).
func (m *MonotoneMap) Max(t prim.Thread, key string, v int64) error {
	if v < 0 || v > m.mask-1 {
		return ErrRange
	}
	lane := t.ID() % m.lanes
	stored := v + 1
	m.gate.RLock()
	defer m.gate.RUnlock()
	tb := m.table.ReadAny(t).(*mapTable)
	b := tb.bucket(key)
	e, first, err := b.claim(key, m.cfg.slots, m.lanes, KindMax)
	if err != nil {
		return err
	}
	if e.kind != KindMax {
		// See IncBy: the refusal linearizes after the binding write, so
		// await its landing before committing "bound to counter".
		b.awaitBound(m.w, t, e.slot)
		return ErrKindMismatch
	}
	cur := e.shadow[lane]
	if stored <= cur {
		return nil
	}
	pl := e.slot*m.lanes + lane
	b.words[m.codec.WordOf(pl)].FetchAddInt(t, m.codec.FieldDelta(cur, stored, pl))
	prim.MarkLinPoint(m.w, t)
	e.shadow[lane] = stored
	if first {
		b.bound[e.slot].WriteAny(t, true)
	}
	b.epoch.FetchAddInt(t, 1)
	return nil
}

// Get returns key's combined value (sum of lanes for a counter, max for a
// max register), or ErrUnknownKey. The collect is validated by the closing
// epoch re-read — the read's final shared step — and retried until the
// witness holds. The table pointer is read fresh on every attempt; a rehash
// overlapping an attempt leaves the old generation frozen, so the epoch
// witness stays sound (see the package comment).
func (m *MonotoneMap) Get(t prim.Thread, key string) (int64, error) {
	for {
		tb := m.table.ReadAny(t).(*mapTable)
		v, ok, err := m.getIn(t, tb, key)
		if ok {
			return v, err
		}
		m.retries.Add(1)
	}
}

func (m *MonotoneMap) getIn(t prim.Thread, tb *mapTable, key string) (int64, bool, error) {
	b := tb.bucket(key)
	b.mu.RLock()
	e := b.dir[key]
	b.mu.RUnlock()
	if e == nil {
		return 0, true, ErrUnknownKey
	}
	lo := e.slot * m.lanes
	hi := lo + m.lanes - 1
	perWord := m.codec.LanesPerWord()
	e1 := b.epoch.FetchAddInt(t, 0)
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
	if b.epoch.FetchAddInt(t, 0) != e1 {
		return 0, false, nil
	}
	if acc == 0 {
		// A validated all-zero collect means no first write of this key had
		// linearized at the witness instant — the directory claim alone does
		// not make the key exist (see the type comment). Committing unknown
		// here, at the closing epoch read, is exactly as sound as a miss.
		return 0, true, ErrUnknownKey
	}
	if e.kind == KindMax {
		acc-- // strip the existence bias
	}
	return acc, true, nil
}

// Kind returns the kind key is bound to (KindNone if unknown).
func (m *MonotoneMap) Kind(t prim.Thread, key string) Kind {
	b := m.table.ReadAny(t).(*mapTable).bucket(key)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if e := b.dir[key]; e != nil {
		return e.kind
	}
	return KindNone
}

// Rehash grows the map to the given bucket count; see GSet.Rehash for the
// cutover discipline (gate writers out, migrate exact values, flip the
// table pointer last).
func (m *MonotoneMap) Rehash(t prim.Thread, buckets int) error {
	if buckets < 1 || buckets > m.cfg.maxBuckets {
		return fmt.Errorf("keyed: bucket count %d outside [1, %d]", buckets, m.cfg.maxBuckets)
	}
	m.gate.Lock()
	defer m.gate.Unlock()
	old := m.table.ReadAny(t).(*mapTable)
	if buckets <= len(old.buckets) {
		return nil
	}
	nt := m.buildTable(old.gen+1, buckets)
	for i := range old.buckets {
		ob := &old.buckets[i]
		for key, oe := range ob.dir {
			nb := nt.bucket(key)
			ne, _, err := nb.claim(key, m.cfg.slots, m.lanes, oe.kind)
			if err != nil {
				return err
			}
			for l := 0; l < m.lanes; l++ {
				opl := oe.slot*m.lanes + l
				v := m.codec.Lane(ob.words[m.codec.WordOf(opl)].FetchAddInt(t, 0), opl)
				ne.shadow[l] = v
				if v == 0 {
					continue
				}
				npl := ne.slot*m.lanes + l
				nb.words[m.codec.WordOf(npl)].FetchAddInt(t, m.codec.FieldDelta(0, v, npl))
			}
			// Writers are gate-excluded, so every migrated entry's binding
			// write has landed; mark the slot bound in the new generation.
			nb.bound[ne.slot].WriteAny(t, true)
		}
	}
	m.table.WriteAny(t, nt)
	m.rehashes.Add(1)
	return nil
}

// Buckets returns the current bucket count.
func (m *MonotoneMap) Buckets(t prim.Thread) int {
	return len(m.table.ReadAny(t).(*mapTable).buckets)
}

// FieldCap returns the per-(key, lane) value cap, 2^width - 2: one unit of
// the field range is reserved for the max registers' existence bias.
func (m *MonotoneMap) FieldCap() int64 { return m.mask - 1 }

// Stats returns a telemetry snapshot.
func (m *MonotoneMap) Stats(t prim.Thread) Stats {
	tb := m.table.ReadAny(t).(*mapTable)
	st := Stats{
		Buckets:        len(tb.buckets),
		Slots:          m.cfg.slots,
		WordsPerBucket: m.codec.Words(),
		Packed:         m.codec.Words() == 1,
		Generation:     tb.gen,
		Rehashes:       m.rehashes.Load(),
		ReadRetries:    m.retries.Load(),
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
