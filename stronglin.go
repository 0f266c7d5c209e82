// Package stronglin is a Go implementation of "Strong Linearizability using
// Primitives with Consensus Number 2" (Attiya, Castañeda, Enea; PODC 2024).
//
// It provides wait-free and lock-free STRONGLY-LINEARIZABLE concurrent
// objects built only from primitives with consensus number 2 (fetch&add,
// test&set), per the paper's constructions:
//
//   - MaxRegister — wait-free, from one fetch&add register (Theorem 1)
//   - Snapshot — wait-free n-component atomic snapshot, from one fetch&add
//     register (Theorem 2)
//   - Counter, LogicalClock, GSet and any other "simple type" — wait-free,
//     via Algorithm 1 over the snapshot (Theorems 3–4)
//   - ReadableTAS — wait-free readable test&set, from plain test&set
//     (Theorem 5)
//   - MultiShotTAS — wait-free readable multi-shot test&set, from test&set
//     and a max register (Theorem 6, Corollary 7)
//   - FetchInc — lock-free readable fetch&increment, from test&set
//     (Theorem 9)
//   - Set — lock-free set with put/take, from test&set (Algorithm 2,
//     Theorem 10)
//
// Strong linearizability (Golab–Higham–Woelfel) strengthens linearizability
// with prefix-closure of the linearization function; it is exactly what is
// needed for concurrent objects to preserve hyperproperties — e.g. the
// probability distributions of randomized algorithms against a strong
// adversary. Queues and stacks (and their relaxed variants) provably have NO
// lock-free strongly-linearizable implementations from these primitives
// (the paper's Theorem 17/19); this library reproduces that side too, as
// executable experiments (see internal/agreement and internal/baseline).
//
// Every construction is verified in-repo by an exhaustive
// strong-linearizability model checker over all interleavings of bounded
// configurations (internal/sim + internal/history), plus randomized
// linearizability stress tests under real goroutine concurrency.
//
// # Quick start
//
//	w := stronglin.NewWorld()
//	m := stronglin.NewMaxRegister(w, 4) // 4 processes
//	// from goroutine p (0..3):
//	m.WriteMax(stronglin.Thread(p), 42)
//	v := m.ReadMax(stronglin.Thread(p))
//
// Operations take an explicit Thread identifying the calling process in
// [0, n); the per-process lanes of the fetch&add constructions depend on it.
// Callers that cannot dedicate one goroutine per process identity — servers,
// worker pools — lease identities from a Pool instead:
//
//	w := stronglin.NewWorld()
//	c := stronglin.NewShardedCounter(w, 8, 4) // 8 lanes, 4 shards
//	p := stronglin.NewPool(w, 8)
//	// from any goroutine:
//	p.With(func(t stronglin.Thread) { c.Inc(t) })
//
// The Sharded* objects stripe monotone writes across independent fetch&add
// cores for multicore throughput (internal/shard documents — and
// model-checks — why the combining reads remain strongly linearizable), and
// cmd/slserve fronts the whole stack with HTTP.
package stronglin

import (
	"fmt"

	"stronglin/internal/adversary"
	"stronglin/internal/core"
	"stronglin/internal/interleave"
	"stronglin/internal/keyed"
	"stronglin/internal/migrate"
	"stronglin/internal/obs"
	"stronglin/internal/pool"
	"stronglin/internal/prim"
	"stronglin/internal/shard"
)

// Thread identifies a process. Pass Thread(p) with p in [0, n) consistently
// from the goroutine acting as process p.
type Thread = prim.RealThread

// World allocates the shared base objects of constructions. One World per
// object family; names of base objects must be unique within it.
type World = prim.RealWorld

// NewWorld returns a world whose primitives are backed by sync/atomic.
func NewWorld() *World { return prim.NewRealWorld() }

// MaxRegister is the paper's Theorem 1 object: a wait-free
// strongly-linearizable max register from a single fetch&add register.
type MaxRegister = core.FAMaxRegister

// NewMaxRegister builds a max register for n processes.
func NewMaxRegister(w *World, n int) *MaxRegister {
	return core.NewFAMaxRegister(w, "stronglin.maxreg", n)
}

// Snapshot is the paper's Theorem 2 object: a wait-free
// strongly-linearizable n-component single-writer atomic snapshot from a
// single fetch&add register. Component i is written by Thread(i).
type Snapshot = core.FASnapshot

// SnapshotOption configures NewSnapshot and the Algorithm 1 constructors
// layered on it; see WithSnapshotBound.
type SnapshotOption = core.SnapshotOption

// WithSnapshotBound declares the component value domain [0, maxValue] of a
// snapshot, selecting its register engine by the codec's budget arithmetic:
// when n × bitWidth(maxValue) ≤ 63 the snapshot runs over a single hardware
// XADD int64 (Update one XADD of a signed in-lane field delta, Scan one
// XADD(0) plus shift-and-mask); when bitWidth(maxValue) ≤ 48 it runs on the
// multi-word engine — components striped across k XADD words, each with a
// per-word sequence field that updates bump atomically with their payload
// (word 0's doubling as the announce counter), Update one payload XADD plus
// at most one announce, Scan a lock-free double collect with a closing
// announce check — so every bounded snapshot with fields up to 48 bits is
// machine-word-backed at any lane count. The wide big.Int register remains
// for unbounded snapshots and for bounds needing 49..63-bit fields (which
// exceed the validated multi-word payload budget). The bound is enforced on
// every engine (Update past it panics). On an Algorithm 1 object the
// snapshot components hold graph-node references, so the bound doubles as a
// lifetime operation budget; see core.SimpleObject.TryExecute.
func WithSnapshotBound(maxValue int64) SnapshotOption {
	return core.WithSnapshotBound(maxValue)
}

// WithScanRetryBudget sets how many invalidated collect rounds a multi-word
// snapshot scan absorbs before raising the helping protocol's pressure
// register and adopting helper deposits (default 2). Multi-word scans are
// HELPED: an update that announces while the pressure register is raised
// performs a bounded validated collect of its own and deposits it in the
// help slot; a starving scan adopts the freshest deposit, its final step
// still witnessing word 0's sequence field so adoption cannot resurrect a
// past state. The budget affects progress only, never returned views — a
// budget of 0 (help after the first failed round) is useful for fuzzing the
// adopt path. Snapshot.HelpStats reports the deposit/adopt telemetry. No-op
// on the single-word and wide engines, whose scans are one fetch&add.
func WithScanRetryBudget(rounds int) SnapshotOption {
	return core.WithScanRetryBudget(rounds)
}

// WithLiveRebase enables the multi-word snapshot engine's live re-base: the
// Snapshot gains Rebase, which rolls the running object onto a fresh
// generation of words — renewing the mod-2^16 per-word sequence budget —
// without stopping readers or writers. Generation, CutoverInFlight,
// SeqWatermark, and RebaseStats expose the scrape-safe telemetry. At most
// one Rebase may run at a time; the Rebaser (see NewRebaser) provides the
// serialisation and the watermark-triggered policy. No-op on the
// single-register engines, whose substrates have no sequence fields to
// exhaust.
func WithLiveRebase(enabled bool) SnapshotOption {
	return core.WithLiveRebase(enabled)
}

// RebaseStats is the live re-base telemetry block reported by
// Snapshot.RebaseStats: completed cutovers, scans that parked and adopted
// the migrator's deposit, scans that parked and awaited the install, and
// updates diverted onto a successor generation.
type RebaseStats = core.RebaseStats

// HelpStats is the helping/retry telemetry block reported by
// Snapshot.HelpStats and the sharded objects' HelpStats: helper deposits,
// adopted reads/scans, failed adoption witnesses, failed validation rounds,
// and pressure-raise episodes. All counts are slow-path events — an
// uncontended operation touches none of them.
type HelpStats = obs.HelpStats

// SnapMetrics is optional scrape-layer snapshot instrumentation for
// WithSnapshotObs; see internal/obs.
type SnapMetrics = obs.SnapMetrics

// ShardMetrics is optional scrape-layer sharded-object instrumentation for
// WithShardObs; see internal/obs.
type ShardMetrics = obs.ShardMetrics

// WithSnapshotObs attaches optional retry-distribution histograms to a
// snapshot, observed on contended scan completions only (the uncontended
// fast path is untouched; nil fields are no-ops).
func WithSnapshotObs(m SnapMetrics) SnapshotOption {
	return core.WithSnapshotObs(m)
}

// WithShardObs attaches optional retry-distribution histograms to a sharded
// object, observed on contended combining-read completions only.
func WithShardObs(m ShardMetrics) ShardOption {
	return shard.WithObs(m)
}

// MaxSnapshotBound returns the largest WithSnapshotBound value that packs a
// snapshot (or an Algorithm 1 object over one) into a SINGLE machine word
// for n processes, or 0 when no bound packs one word (n > 63). Sizing bounds
// through it keeps callers in sync with the packed engine's machine-word
// budget.
func MaxSnapshotBound(n int) int64 { return interleave.MaxFieldBound(n) }

// MaxSnapshotBoundWords returns the largest WithSnapshotBound value whose
// encoding hosts n processes within at most the given number of machine
// words — the multi-word engine's own budget arithmetic
// (interleave.MaxMultiFieldBound: 48 payload bits per word next to the
// sequence field). It generalizes MaxSnapshotBound (the words=1 case) past
// the 63-bit ceiling: with words ≥ ⌈n/2⌉ every lane gets at least a 24-bit
// field (a ≥ 2²⁴−1 operation budget for an Algorithm 1 object at ANY lane
// count), and with words ≥ n a full 48-bit field (≥ 2⁴⁸−1). Sizing bounds
// through it keeps callers in sync with the engine's word-count arithmetic.
func MaxSnapshotBoundWords(n, words int) int64 { return interleave.MaxMultiFieldBound(n, words) }

// NewSnapshot builds a snapshot for n processes.
func NewSnapshot(w *World, n int, opts ...SnapshotOption) *Snapshot {
	return core.NewFASnapshot(w, "stronglin.snapshot", n, opts...)
}

// NewMultiwordSnapshot builds a second, independently named snapshot sized
// by the multi-word engine's word-budget arithmetic: its bound is the
// largest MaxSnapshotBoundWords(n, words) value, so the components stripe
// across at most words machine words (the constructor still picks the
// single packed word when the bound happens to fit one, e.g. n ≤ 2 with
// words = ⌈n/2⌉). It panics when the word budget cannot host n lanes at all
// (n > 48 × words and n > 63 — MaxSnapshotBoundWords returns 0, i.e. not
// even 1-bit fields fit), rather than returning an object whose every
// nonzero Update would panic. It can live in the same World as a
// NewSnapshot object.
// Extra options (a scan retry budget, WithSnapshotObs) apply after the
// engine-selecting bound.
func NewMultiwordSnapshot(w *World, n, words int, opts ...SnapshotOption) *Snapshot {
	bound := MaxSnapshotBoundWords(n, words)
	if bound == 0 {
		panic(fmt.Sprintf("stronglin: NewMultiwordSnapshot: %d words cannot host %d lanes (need at least ⌈n/48⌉ words)", words, n))
	}
	return core.NewFASnapshot(w, "stronglin.msnapshot", n,
		append([]SnapshotOption{WithSnapshotBound(bound)}, opts...)...)
}

// Counter is a wait-free strongly-linearizable counter (Theorems 3–4:
// Algorithm 1 over the fetch&add snapshot).
type Counter = core.Counter

// NewCounter builds a counter for n processes.
func NewCounter(w *World, n int, opts ...SnapshotOption) *Counter {
	return core.NewCounterFromFA(w, "stronglin.counter", n, opts...)
}

// LogicalClock is a wait-free strongly-linearizable logical clock
// (Theorems 3–4).
type LogicalClock = core.LogicalClock

// NewLogicalClock builds a logical clock for n processes.
func NewLogicalClock(w *World, n int, opts ...SnapshotOption) *LogicalClock {
	return core.NewLogicalClockFromFA(w, "stronglin.clock", n, opts...)
}

// GSet is a wait-free strongly-linearizable grow-only set (Theorems 3–4).
type GSet = core.GSet

// NewGSet builds a grow-only set for n processes.
func NewGSet(w *World, n int, opts ...SnapshotOption) *GSet {
	return core.NewGSetFromFA(w, "stronglin.gset", n, opts...)
}

// SimpleMax is a wait-free strongly-linearizable max-with-read built via
// Algorithm 1 (Theorems 3–4) — the simple-type max register of Section 3.3,
// as distinct from Theorem 1's direct MaxRegister construction. With a
// WithSnapshotBound it is machine-word-backed at any lane count (multi-word
// past 63 lanes).
type SimpleMax = core.Max

// NewSimpleMax builds a max-with-read for n processes.
func NewSimpleMax(w *World, n int, opts ...SnapshotOption) *SimpleMax {
	return core.NewMaxFromFA(w, "stronglin.simplemax", n, opts...)
}

// ReadableTAS is the paper's Theorem 5 object: a wait-free
// strongly-linearizable readable test&set from a plain test&set.
type ReadableTAS = core.ReadableTAS

// NewReadableTAS builds a readable test&set.
func NewReadableTAS(w *World) *ReadableTAS {
	return core.NewReadableTAS(w, "stronglin.rtas")
}

// MultiShotTAS is the paper's Theorem 6 / Corollary 7 object: a wait-free
// strongly-linearizable readable multi-shot test&set from test&set and
// fetch&add.
type MultiShotTAS = core.MultiShotTAS

// NewMultiShotTAS builds a multi-shot test&set for n processes.
func NewMultiShotTAS(w *World, n int) *MultiShotTAS {
	return core.NewMultiShotTASFromPrimitives(w, "stronglin.mstas", n)
}

// FetchInc is the paper's Theorem 9 object: a lock-free
// strongly-linearizable readable fetch&increment from test&set.
type FetchInc = core.FetchInc

// NewFetchInc builds a fetch&increment counting from 1.
func NewFetchInc(w *World) *FetchInc {
	return core.NewFetchIncFromTAS(w, "stronglin.fai")
}

// Set is the paper's Theorem 10 / Algorithm 2 object: a lock-free
// strongly-linearizable set from test&set. Items must be positive; Take
// returns the canonical responses of package semantics: an item's decimal
// encoding or "empty".
type Set = core.TASSet

// NewSet builds a set.
func NewSet(w *World) *Set {
	return core.NewTASSetFromTAS(w, "stronglin.set")
}

// Pool is the lane-leasing runtime: it manages n process identities as
// leases so that arbitrary goroutines (HTTP handlers, worker pools) can use
// the n-process objects above without manual thread bookkeeping. Lane claim
// and release are single steps on per-lane swap registers (consensus number
// 2); see internal/pool for the protocol.
type Pool = pool.Pool

// Lease is a claimed process identity; pass Lease.Thread() to object
// operations and Release exactly once when done.
type Lease = pool.Lease

// NewPool builds a pool leasing the n process identities of w's objects.
// Acquire/With hand out Threads in [0, n); use the same n as the objects the
// leases will drive.
func NewPool(w *World, n int) *Pool {
	return pool.New(w, "stronglin.pool", n)
}

// ShardOption configures the sharded constructors; see WithBound.
type ShardOption = shard.Option

// WithBound declares the value domain [0, bound] of a sharded object
// (max-register values, grow-only-set elements, the counter's final count).
// Each shard core then packs its register into a single machine word — a
// hardware XADD int64 instead of the arbitrary-precision fetch&add — whenever
// its per-shard encoding fits, with automatic per-shard fallback to the wide
// register when it does not. The packed fast path removes the mutex, the
// big.Int arithmetic, and all per-operation allocation from writes and reads;
// the strong-linearizability guarantee (and its model checks) are unchanged.
// Max-register writes and set adds beyond the bound panic (uniformly, whether
// or not the shard packed); the counter's bound is a capacity declaration
// used for engine selection only — see shard.WithBound.
func WithBound(bound int64) ShardOption { return shard.WithBound(bound) }

// WithReadRetryBudget sets how many invalidated collect rounds a sharded
// object's combining read absorbs before raising pressure (carried in the
// epoch register's high bits) and adopting helper deposits (default 2). The
// sharded reads are HELPED: a write whose epoch announce returns raised
// pressure bits deposits an epoch-validated collect of its own, and a
// starving read adopts it, its closing epoch read still witnessing that no
// write completed since the helper validated. The budget affects progress
// only, never returned values; each sharded object's HelpStats reports the
// deposit/adopt telemetry. See internal/shard's package comment for the
// protocol and its strong-linearizability argument.
func WithReadRetryBudget(rounds int) ShardOption {
	return shard.WithReadRetryBudget(rounds)
}

// ShardedCounter is a monotone counter whose increments stripe across S
// independent fetch&add cores (shard picked by lane ID) and whose reads
// combine the shards by an epoch-validated sum. Strong linearizability of
// the sharded layer is model-checked in internal/shard; reads are lock-free.
type ShardedCounter = shard.Counter

// NewShardedCounter builds a sharded monotone counter for n processes over
// shards cores (shards <= n).
func NewShardedCounter(w *World, n, shards int, opts ...ShardOption) *ShardedCounter {
	return shard.NewCounter(w, "stronglin.shardctr", n, shards, opts...)
}

// ShardedMaxRegister is a max register whose writes stripe across S
// independent Theorem 1 cores and whose reads combine the shards by an
// epoch-validated max.
type ShardedMaxRegister = shard.MaxRegister

// NewShardedMaxRegister builds a sharded max register for n processes over
// shards cores (shards <= n).
func NewShardedMaxRegister(w *World, n, shards int, opts ...ShardOption) *ShardedMaxRegister {
	return shard.NewMaxRegister(w, "stronglin.shardmax", n, shards, opts...)
}

// ShardedGSet is a grow-only set whose adds stripe across S independent
// fetch&add cores and whose membership reads witness directly or validate
// absence against the epoch.
type ShardedGSet = shard.GSet

// NewShardedGSet builds a sharded grow-only set for n processes over shards
// cores (shards <= n).
func NewShardedGSet(w *World, n, shards int, opts ...ShardOption) *ShardedGSet {
	return shard.NewGSet(w, "stronglin.shardgset", n, shards, opts...)
}

// WatermarkState classifies a watched object's budget consumption; see
// NewRebaser.
type WatermarkState = migrate.State

// Watermark states, in degradation order. Warn means a re-base is due (the
// Rebaser performs it on its next Step); Crit means the budget is nearly
// spent — and a successful rollover still recovers it to OK.
const (
	WatermarkOK   = migrate.StateOK
	WatermarkWarn = migrate.StateWarn
	WatermarkCrit = migrate.StateCrit
)

// RebaseThresholds are the warn/crit fractions of a watched budget; see
// NewRebaser.
type RebaseThresholds = migrate.Thresholds

// RebaseTarget is one live object whose finite budget a Rebaser renews:
// the multi-word snapshot's mod-2^16 sequence budget, or a sharded object's
// 2^48 epoch announce budget.
type RebaseTarget = migrate.Target

// SnapshotRebaseTarget watches a multi-word snapshot's sequence watermark
// and renews it with a live Rebase. The snapshot must have been built with
// WithLiveRebase.
func SnapshotRebaseTarget(name string, s *Snapshot) RebaseTarget {
	return migrate.SnapshotTarget(name, s)
}

// CounterRebaseTarget watches a sharded counter's epoch announce count and
// renews it with RolloverEpoch.
func CounterRebaseTarget(name string, c *ShardedCounter) RebaseTarget {
	return migrate.CounterTarget(name, c)
}

// MaxRegisterRebaseTarget is CounterRebaseTarget for a sharded max-register.
func MaxRegisterRebaseTarget(name string, m *ShardedMaxRegister) RebaseTarget {
	return migrate.MaxRegisterTarget(name, m)
}

// GSetRebaseTarget is CounterRebaseTarget for a sharded grow-only set.
func GSetRebaseTarget(name string, g *ShardedGSet) RebaseTarget {
	return migrate.GSetTarget(name, g)
}

// Rebaser drives watermark-triggered live re-bases over a set of targets,
// serialising cutovers (the at-most-one-migrator contract of the underlying
// primitives). State and StateOf are scrape-safe; Step performs the due
// cutovers.
type Rebaser = migrate.Rebaser

// RebaserStats is the Rebaser's cumulative telemetry.
type RebaserStats = migrate.Stats

// NewRebaser builds a Rebaser over the given targets. Thresholds must
// satisfy 0 < warn <= crit < 1.
func NewRebaser(thr RebaseThresholds, targets ...RebaseTarget) (*Rebaser, error) {
	return migrate.NewRebaser(thr, targets...)
}

// KeyedOption configures the keyed (string-domain) constructors NewKeyedGSet
// and NewMonotoneMap; see WithKeyedBuckets and friends.
type KeyedOption = keyed.Option

// WithKeyedBuckets sets a keyed object's initial bucket count (default 8).
// Keys hash (fnv-1a 64) to buckets; each bucket is its own k-XADD engine.
func WithKeyedBuckets(n int) KeyedOption { return keyed.WithBuckets(n) }

// WithKeyedSlots sets how many distinct keys one bucket hosts (default 16
// for a KeyedGSet, 8 for a MonotoneMap). For a KeyedGSet the slot count is
// also the per-lane bitmap width in bits, so it is capped at 48.
func WithKeyedSlots(n int) KeyedOption { return keyed.WithSlots(n) }

// WithKeyedWidth sets a MonotoneMap's bits per (key, lane) value field
// (default 32, max 48). The stored field cap is 2^width - 1, but the
// client-visible cap is FieldCap = 2^width - 2: one unit is reserved for the
// existence bias that keeps a landed Max(k, 0) distinguishable from no write
// at all. No-op for a KeyedGSet, whose fields are 1-bit memberships.
func WithKeyedWidth(bits int) KeyedOption { return keyed.WithWidth(bits) }

// WithKeyedMaxBuckets caps Rehash growth (default 1<<16 buckets).
func WithKeyedMaxBuckets(n int) KeyedOption { return keyed.WithMaxBuckets(n) }

// KeyedStats is the telemetry snapshot reported by KeyedGSet.Stats and
// MonotoneMap.Stats.
type KeyedStats = keyed.Stats

// MapKind is the monotone flavor a MonotoneMap key is bound to at its first
// write: a counter (Inc/IncBy) or a max register (Max).
type MapKind = keyed.Kind

// MonotoneMap key kinds.
const (
	// MapKindNone is the zero MapKind; no key is ever bound to it.
	MapKindNone = keyed.KindNone
	// MapKindCounter keys support Inc/IncBy; Get sums the lanes.
	MapKindCounter = keyed.KindCounter
	// MapKindMax keys support Max; Get maxes the lanes.
	MapKindMax = keyed.KindMax
)

// Keyed-universe errors. All are terminal for the op that received them;
// ErrKeyedFull is resolved by Rehash to a larger bucket count.
var (
	// ErrKeyedFull means both of the key's candidate buckets are full; grow
	// with Rehash.
	ErrKeyedFull = keyed.ErrFull
	// ErrKeyedBudget means the per-(key, lane) field cannot absorb the update.
	ErrKeyedBudget = keyed.ErrBudget
	// ErrKeyedKindMismatch means the key is bound to the other kind.
	ErrKeyedKindMismatch = keyed.ErrKindMismatch
	// ErrKeyedUnknownKey means the key has never been written.
	ErrKeyedUnknownKey = keyed.ErrUnknownKey
	// ErrKeyedRange means a delta or value lies outside the field domain.
	ErrKeyedRange = keyed.ErrRange
)

// KeyedHash is the keyed universe's bucket hash (fnv-1a 64 over the key
// bytes), exported so routing tiers partition the keyspace with the identical
// function.
func KeyedHash(key string) uint64 { return keyed.Hash(key) }

// KeyedGSet is a strongly-linearizable grow-only set over STRING keys — the
// sparse companion to the dense-domain sharded GSet. Keys hash to buckets;
// each bucket is a k-XADD engine holding one membership bit per (key, lane),
// so Add is one fetch&add and Has is an epoch-validated collect. Buckets grow
// at runtime with Rehash (flip-after-migrate; no acked add is ever lost).
// Strong linearizability of both ops and of reads overlapping a rehash is
// model-checked exhaustively in internal/keyed.
type KeyedGSet = keyed.GSet

// NewKeyedGSet builds a keyed grow-only set for n process lanes.
func NewKeyedGSet(w *World, n int, opts ...KeyedOption) *KeyedGSet {
	return keyed.NewGSet(w, "stronglin.kgset", n, opts...)
}

// MonotoneMap is a strongly-linearizable map from string keys to monotone
// values: each key binds at first write to a monotone counter (Inc/IncBy) or
// a max register (Max); Get combines the key's per-lane fields (sum or max)
// under the epoch-validated closing-witness discipline. Buckets grow at
// runtime with Rehash exactly as KeyedGSet's.
type MonotoneMap = keyed.MonotoneMap

// NewMonotoneMap builds a keyed monotone map for n process lanes.
func NewMonotoneMap(w *World, n int, opts ...KeyedOption) *MonotoneMap {
	return keyed.NewMonotoneMap(w, "stronglin.kmap", n, opts...)
}

// AdversaryOutcome aggregates strong-adversary game trials (see
// PlayAdversary).
type AdversaryOutcome = adversary.Outcome

// Adversary game targets.
const (
	// AdversaryVsStrong attacks the strongly-linearizable fetch&add
	// snapshot; the adversary's win rate stays at 1/2.
	AdversaryVsStrong = adversary.FASnapshot
	// AdversaryVsLinearizable attacks the merely-linearizable Afek et al.
	// snapshot; the adversary wins every trial.
	AdversaryVsLinearizable = adversary.AfekSnapshot
	// AdversaryVsStrongPacked attacks the packed machine-word engine of the
	// fetch&add snapshot; the win rate stays at 1/2, exactly as wide.
	AdversaryVsStrongPacked = adversary.PackedFASnapshot
	// AdversaryVsStrongMultiword attacks the multi-word k-XADD engine, whose
	// scans are double collects with a closing announce check; the win rate
	// stays at 1/2 — a completed (announced) update's visibility to a
	// validated scan is committed before the coin exists.
	AdversaryVsStrongMultiword = adversary.MultiwordFASnapshot
)

// PlayAdversary runs the hyperproperty-preservation game: a strong
// adversary tries to correlate a scanner's view with a later coin flip. It
// demonstrates why strongly-linearizable objects are required by randomized
// programs.
func PlayAdversary(kind adversary.SnapshotKind, trials int, seed int64) AdversaryOutcome {
	return adversary.Play(kind, trials, seed)
}
