package keyed

import (
	"fmt"

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
	engine
	mask int64 // per-field stored cap: 1<<width - 1; client cap is mask-1
}

// NewMonotoneMap builds a keyed monotone map for lanes process lanes.
func NewMonotoneMap(w prim.World, name string, lanes int, opts ...Option) *MonotoneMap {
	cfg := configure("MonotoneMap", lanes, 8, opts) // slots*lanes fields per bucket
	if cfg.slots < 1 {
		panic(fmt.Sprintf("keyed: MonotoneMap slots %d < 1", cfg.slots))
	}
	if cfg.width < 2 || cfg.width > interleave.LaneBits {
		// Width 1 leaves no room for the max registers' +1 existence bias
		// (client cap would be 0).
		panic(fmt.Sprintf("keyed: MonotoneMap width %d outside [2, %d]", cfg.width, interleave.LaneBits))
	}
	m := &MonotoneMap{mask: int64(1)<<uint(cfg.width) - 1}
	m.init(w, name, lanes, cfg, interleave.MustNewMultiPacked(cfg.slots*lanes, cfg.width), m)
	return m
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
	return m.write(t, key, KindCounter, d)
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
	return m.write(t, key, KindMax, v+1)
}

// write lands one write of kind on key from t's lane: x is the counter's
// delta or the max register's stored (biased) value.
func (m *MonotoneMap) write(t prim.Thread, key string, kind Kind, x int64) error {
	lane := t.ID() % m.lanes
	m.gate.RLock()
	defer m.gate.RUnlock()
	b, e, first, err := m.enter(t, key, kind)
	if err != nil {
		return err
	}
	if e.kind != kind {
		// The refusal commits "key is bound to the other kind", so it must
		// linearize after the binding first write — which may not have
		// landed yet (the directory claim precedes the binder's payload
		// XADD). Refusing early is the un-linearizable trio the
		// KindRaceWithReader model check pins: refusal says bound, the
		// refused process's next get still says unknown. The wait is a
		// weak-fairness conditional read (one un-enabled step in the
		// simulated world, a read spin in the real one), bounded by the
		// binder's claim→XADD→flag window of two shared steps.
		prim.AwaitAny(m.w, t, b.bound[e.slot], func(v any) bool { return v == true })
		return ErrKindMismatch
	}
	cur, next := e.shadow[lane], x
	if kind == KindCounter {
		if next = cur + x; next > m.mask-1 {
			return ErrBudget
		}
	} else if next <= cur {
		return nil
	}
	pl := e.slot*m.lanes + lane
	b.words[m.codec.WordOf(pl)].FetchAddInt(t, m.codec.FieldDelta(cur, next, pl))
	prim.MarkLinPoint(m.w, t)
	e.shadow[lane] = next
	if first {
		b.bound[e.slot].WriteAny(t, true)
	}
	b.epoch.FetchAddInt(t, 1)
	return nil
}

// Get returns key's combined value (sum of lanes for a counter, max for a
// max register), or ErrUnknownKey, through the engine's validated read.
func (m *MonotoneMap) Get(t prim.Thread, key string) (int64, error) {
	return decode(m.read(t, key))
}

// decode turns a collect of e into Get's answer. An all-zero collect means
// no first write of the key had linearized — the directory claim alone does
// not make the key exist (see the type comment) — so it commits unknown,
// exactly as a directory miss does.
func decode(acc int64, e *entry) (int64, error) {
	if e == nil || acc == 0 {
		return 0, ErrUnknownKey
	}
	if e.kind == KindMax {
		acc-- // strip the existence bias
	}
	return acc, nil
}

// Kind returns the kind key is bound to (KindNone if unknown).
func (m *MonotoneMap) Kind(t prim.Thread, key string) Kind {
	if _, e := m.lookup(t, key); e != nil {
		return e.kind
	}
	return KindNone
}

// FieldCap returns the per-(key, lane) value cap, 2^width - 2: one unit of
// the field range is reserved for the max registers' existence bias.
func (m *MonotoneMap) FieldCap() int64 { return m.mask - 1 }

// grow allocates the generation's bound flags as one named block: bucket
// b's are bound[b*slots : (b+1)*slots]. Slot s's flag is written true by
// the key's binding first writer right after its payload XADD; a
// conflicting-kind writer awaits it before refusing (see write).
func (m *MonotoneMap) grow(tb *table, prefix string) {
	ns := m.cfg.slots
	bound := prim.AnyRegisters(m.w, prefix+".bound", len(tb.buckets)*ns, false)
	for b := range tb.buckets {
		tb.buckets[b].bound = bound[b*ns : (b+1)*ns : (b+1)*ns]
	}
}

func (m *MonotoneMap) collect(t prim.Thread, b *bucket, e *entry) (int64, bool) {
	lo := e.slot * m.lanes
	hi := lo + m.lanes - 1
	perWord := m.codec.LanesPerWord()
	var acc int64
	for wi := m.codec.WordOf(lo); wi <= m.codec.WordOf(hi); wi++ {
		word := b.words[wi].FetchAddInt(t, 0)
		for pl := max(lo, wi*perWord); pl <= min(hi, wi*perWord+perWord-1); pl++ {
			if v := m.codec.Lane(word, pl); e.kind == KindMax {
				acc = max(acc, v)
			} else {
				acc += v
			}
		}
	}
	return acc, false
}

// migrate copies every lane's exact field and marks the slot bound: writers
// are gate-excluded, so every migrated entry's binding write has landed.
// The fields equal the shadow ne shares with oe, which therefore stays
// exact.
func (m *MonotoneMap) migrate(t prim.Thread, ob *bucket, oe *entry, nb *bucket, ne *entry) {
	for l := 0; l < m.lanes; l++ {
		opl := oe.slot*m.lanes + l
		v := m.codec.Lane(ob.words[m.codec.WordOf(opl)].FetchAddInt(t, 0), opl)
		if v == 0 {
			continue
		}
		npl := ne.slot*m.lanes + l
		nb.words[m.codec.WordOf(npl)].FetchAddInt(t, m.codec.FieldDelta(0, v, npl))
	}
	nb.bound[ne.slot].WriteAny(t, true)
}
