// Package keyed implements the sparse keyed universe: hashed variants of the
// repo's monotone objects whose element domain is arbitrary strings rather
// than dense non-negative ints.
//
// Both objects are one construction. Keys hash (fnv-1a 64) to buckets; each
// bucket is its own k-XADD engine on the interleave.MultiPacked codec, with
// a directory that assigns slots to keys first-come-first-served: entry i of
// the directory array holds slot i's key, next to a one-byte tag (the top
// byte of the key's hash) that a lookup compares before the key. A key has
// two candidate buckets, the hash and a finalizer of it, each mod the bucket
// count; its first write claims a slot in the candidate with fewer entries
// (the first on a tie), so one crowded bucket rarely forces a rehash. A
// lookup scans both candidates' directories. A key owns one fetch&add field
// per writer lane, and a read collects the key's words and validates them
// with a closing witness read.
// One unexported engine (engine.go) holds everything the two share: the
// table pointer, the bucket directory, the validated read, Rehash and Stats.
// The objects are two layouts over it, each saying only what a field holds,
// what a write adds and how a collect combines:
//
//   - GSet — a grow-only set over string keys. Lane l's field in a bucket is
//     a slot-bitmap, so an add is ONE fetch&add of a single bit plus a
//     sequence bump, exactly the FAGSet discipline with the dense domain
//     replaced by the directory. A collect ORs the lanes.
//
//   - MonotoneMap — a strongly-linearizable map from string keys to monotone
//     values: each key is, at its first write, bound to one of two kinds —
//     a monotone counter (Inc/IncBy) or a max register (Max). A key's slot
//     holds one value field per lane, so writes stay single-XADD and
//     contention-free across lanes; Get combines the lanes (sum for
//     counters, max for max registers).
//
// # Strong linearizability
//
// Writes linearize at their payload XADD (the sequence field bumps in the
// same atomic step) and then announce on the bucket's epoch register —
// the shard discipline. Reads are epoch-validated collects with the closing
// witness LAST: snapshot the bucket epoch, collect the key's words, re-read
// the epoch, and retry until the two reads are equal. The read's final
// shared step (the closing epoch read) witnesses that no write to the bucket
// completed its announce inside the window, which pins the collected value
// to a real instant and makes the commit decision a function of the past
// only — the prefix-closure that strong linearizability demands. The engine
// has exactly one such read loop, so the rule holds in one place. The
// witness-free twins (the same collect, no closing read) live in
// twins_test.go and are pinned linearizable-but-NOT-SL by the negative model
// checks in keyed_test.go.
//
// # Rehash: growth rides the cutover discipline
//
// Bucket counts grow at runtime without losing an acked update, by the
// flip-after-migrate recipe of the snapshot's live re-base. The bucket array
// lives behind a single table pointer register. Writers hold a shared (read)
// lock on the rehash gate for the duration of one write; Rehash takes the
// gate exclusively — so the old table is frozen while it migrates — places
// every directory entry in a new generation of buckets, in slot order, has
// the layout copy its exact value, and only then flips the table pointer. A
// generation is one named register block per bucket field (words, epochs,
// the map's bound flags — prim.FetchAddInts/AnyRegisters), addressed by
// bucket index. A rehash thus claims O(1) names however many buckets it
// builds; the real world backs each block with one flat slice, and a
// bucket's directory is allocated at its first key. An entry (key, kind,
// shadow) names no generation, since its slot is its directory index, so
// the new directories hold the old entries and nothing is made per key.
// Readers never touch the gate: one table-pointer read inside the op's
// interval suffices. If a rehash overlaps the read, the old
// generation it collected from was FROZEN from the gate's acquisition on, so
// the epoch witness still pins the returned value to an instant inside the
// read's interval (any write that could contradict it lands in the new
// generation and is concurrent with the read); a table pointer loaded before
// an op's invocation can never leak in, because the pointer is re-read per
// attempt. Every acked write either happened before the exclusive lock
// (migrated exactly) or after the flip (lands in the new generation).
package keyed

import "errors"

// Errors returned by keyed objects. All are terminal for the op that
// received them; ErrFull is resolved by Rehash to a larger bucket count.
var (
	// ErrFull means both of the key's candidate buckets are out of free
	// slots. Grow with Rehash.
	ErrFull = errors.New("keyed: bucket slots exhausted; rehash to more buckets")
	// ErrBudget means the per-(key, lane) field cannot absorb the update
	// without overflowing its binary field.
	ErrBudget = errors.New("keyed: per-lane field budget exhausted")
	// ErrKindMismatch means the key is already bound to the other kind
	// (counter vs max register).
	ErrKindMismatch = errors.New("keyed: key already bound to the other kind")
	// ErrUnknownKey means the key has never been written.
	ErrUnknownKey = errors.New("keyed: unknown key")
	// ErrRange means a delta or value lies outside the field domain.
	ErrRange = errors.New("keyed: delta or value outside the field range")
)

// Kind is the monotone flavor a MonotoneMap key is bound to at first write.
type Kind uint8

const (
	// KindNone is the zero Kind; no key is ever bound to it.
	KindNone Kind = iota
	// KindCounter keys support Inc/IncBy; Get sums the lanes.
	KindCounter
	// KindMax keys support Max; Get maxes the lanes.
	KindMax
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindMax:
		return "max"
	default:
		return "none"
	}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is the keyed universe's bucket hash: fnv-1a over the key bytes.
// Exported so the routing tier partitions the keyspace with the identical
// function (allocation-free, unlike hash/fnv's io.Writer surface).
func Hash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// Option configures NewGSet and NewMonotoneMap.
type Option func(*config)

type config struct {
	buckets    int
	slots      int
	width      int
	maxBuckets int
}

// WithBuckets sets the initial bucket count (default 8).
func WithBuckets(n int) Option { return func(c *config) { c.buckets = n } }

// WithSlots sets how many distinct keys one bucket hosts (default 16 for a
// GSet, 8 for a MonotoneMap). For a GSet the slot count is also the per-lane
// field width in bits, so it must be at most interleave.LaneBits.
func WithSlots(n int) Option { return func(c *config) { c.slots = n } }

// WithWidth sets a MonotoneMap's bits per (key, lane) field (default 32,
// max interleave.LaneBits). The per-lane value cap is FieldCap,
// 2^width - 2: one unit is reserved for the max registers' existence bias.
func WithWidth(bits int) Option { return func(c *config) { c.width = bits } }

// WithMaxBuckets caps Rehash growth (default 1<<16 buckets).
func WithMaxBuckets(n int) Option { return func(c *config) { c.maxBuckets = n } }

// Stats is a point-in-time telemetry snapshot of a keyed object.
type Stats struct {
	Buckets        int   // current bucket count
	Slots          int   // keys per bucket
	Keys           int   // distinct keys tracked
	WordsPerBucket int   // engine words per bucket
	Packed         bool  // one-word buckets (the 0-alloc fast shape)
	Generation     int64 // table generation (bumps on every rehash)
	Rehashes       int64 // completed rehashes
	ReadRetries    int64 // validated-collect retries (epoch or table moved)
	EpochAnnounces int64 // total write announces across current buckets
}
