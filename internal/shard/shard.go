// Package shard stripes the library's monotone objects across S independent
// fetch&add cores so that writers on different shards never contend on the
// same wide register, and combines shard reads into the object's value.
//
// Writes pick their shard by lane ID (t.ID() % S): with lanes leased from
// internal/pool, concurrent writers spread across shards, turning the single
// fetch&add hot spot of the unsharded constructions into S independent ones.
// Reads visit every shard and combine: sum for the counter, max for the max
// register, or-over-membership for the grow-only set.
//
// # Why naive monotone combination is not enough
//
// Each shard is strongly linearizable with single-step operations, and each
// shard's value is MONOTONE (non-decreasing in the object's natural order).
// For a read that performs one shard read per shard at times t_1 < ... < t_S,
// monotonicity buys plain linearizability for sum and membership combines:
//
//   - Counter (sum): total(t_1) <= sum <= total(t_S), and the total passes
//     through every intermediate value in unit steps, so the sum was the
//     exact total at some instant inside the read.
//   - GSet (or): a membership miss at t_s >= t_1 means (monotonicity) a miss
//     at t_1 too, so "absent" was globally true at t_1; a hit was true when
//     witnessed.
//   - MaxRegister (max): the argument FAILS — the global max does not pass
//     through intermediate values. If a reader collects shard A before
//     WriteMax(7) lands there, WriteMax(7) completes, WriteMax(3) completes
//     on shard B, and the reader then collects B, it returns 3 even though 7
//     was written strictly earlier: not linearizable. The model checker
//     reproduces exactly this (TestShardedMaxRegisterSingleCollectNotLinearizable).
//
// Linearizability is still not the library's contract — STRONG
// linearizability is, and the naive combine fails it even where it is
// linearizable. The execution-tree game checker exhibits the trap for the
// single-collect counter: a reader collects shard A = 0; an inc lands on A
// and RETURNS. Prefix-closure forces the completed inc into the
// linearization now, and only APPENDS are allowed later — but the reader's
// eventual value (0 or 1) still depends on whether a second inc beats its
// read of shard B, so no commitment made at this point survives both
// futures. The sum combine is linearizable but NOT strongly linearizable
// (TestShardedCounterSingleCollectNotStrongLin), precisely the
// hyperproperty-relevant gap this library exists to close.
//
// # Epoch-validated collects
//
// The sharded objects therefore close the staleness window with one narrow
// machine-word fetch&add register, the EPOCH: a write performs its shard
// fetch&add (its linearization point) and then announces completion by
// fetch&add(epoch, 1); a read snapshots the epoch, collects the shards, and
// re-reads the epoch, retrying the collect until the epoch is unchanged. On
// success, every write that completed before the read's final step had
// announced before the window opened — so its shard step is included in the
// collect, and the combined value is consistent with every operation the
// prefix-closed linearization has already committed. Writes the collect saw
// whose announce is still pending linearize eagerly (their void responses
// are determined at their shard step), exactly the pending-operation
// linearization the game checker explores. Strong linearizability of all
// three sharded objects is decided mechanically on bounded configurations
// (2 shards x 2-3 processes) in the package tests.
//
// The epoch register is shared by all writers, but it is the bounded
// special case of fetch&add (hardware XADD on an int64) — the expensive,
// contended work of the unsharded constructions, the mutex-guarded
// arbitrary-precision arithmetic on registers whose width grows with values
// times lanes, is what gets striped.
//
// # Helping: reads survive write storms
//
// An epoch-validated collect alone is only lock-free: every retry consumes a
// concurrent write's announce, so a write storm can starve a reader
// indefinitely. The sharded objects therefore HELP starving readers, with
// the same discipline as internal/core's multi-word snapshot scans.
//
// The pressure signal rides the epoch register itself: the low 48 bits
// count announces, the bits above them count readers currently past their
// retry budget (WithReadRetryBudget, default 2 rounds). A starving reader
// raises pressure with fetch&add(epoch, 2^48) and lowers it on return —
// ordinary epoch movement to everyone else's validation, which compares
// exact values. A write already performs fetch&add(epoch, 1) to announce,
// and that XADD RETURNS the previous epoch — so writes learn of starving
// readers for free, with zero additional steps on the uncontended path.
// A write whose announce returns raised pressure bits then performs one
// bounded epoch-validated collect of its own and deposits the combined
// value, keyed by the exact epoch value it validated at, in the help slot.
//
// From then on each of the starving reader's rounds also reads the slot
// BEFORE its closing epoch read, and a round whose own validation fails
// ADOPTS the deposit if the closing epoch read — still the read's final
// shared step — equals the deposit's epoch: the identical validation
// applied to a helper's collect instead of the reader's own, so an adopted
// value carries the same strong-linearizability argument (every write that
// completed before the read's final step had announced before the helper's
// window opened, so the deposit includes its shard step; a write announcing
// after the helper validated moves the epoch and forces a retry — adoption
// cannot resurrect a past value). Helping bounds a starved reader's own
// steps against any single-writer storm — each storm write must refresh the
// deposit before its next announce can invalidate it (the progress witness
// in the package tests pins the fixed budget on the schedule that provably
// starves the unhelped read) — while writes stay wait-free: the helper's
// collect is bounded, and a helper that keeps being invalidated gives up,
// leaving the obligation to whichever write invalidated it. Against
// adversarial multi-writer schedules an adopt retry still consumes a fresh
// announce (strictly, reads remain lock-free, matching the guarantee of the
// paper's Theorem 9/10 objects; the helpers shrink the starvation window
// from the full S-shard collect to the two steps between the slot read and
// the epoch witness). The 2^48 announce capacity before the count would
// carry into the pressure bits is of a kind with the engine's other
// rollover caveats; at one announce per nanosecond it is ~3 days of
// continuous writes, and the count is per-object — and unlike the
// pre-migration engine it is no longer terminal: RolloverEpoch re-bases the
// announce count live (see the live-rollover section below).
//
// # Live epoch rollover: the announce budget is renewable
//
// RolloverEpoch (on every sharded object) rewinds the epoch's announce
// count to ~0 without stopping traffic, converting the 2^48 announce budget
// from a lifetime into a lease. The whole cutover is one short sequence on
// the migrator — no writer or reader path changes, and no operation blocks:
//
//  1. ARM: set epochCutoverBit with one fetch&add. The bit announces a
//     rollover in flight (at most one runs at a time — internal/migrate
//     serialises — and a crashed migrator's rollover is completed by simply
//     calling RolloverEpoch again, which sees the bit and skips to step 2).
//  2. FLUSH: overwrite the help slot with the no-deposit sentinel, so no
//     combine validated against a pre-rollover epoch value survives the
//     rewind.
//  3. REWIND: read the epoch, take wound = its current announce count, and
//     apply ONE fetch&add of (epochGenUnit - wound - epochCutoverBit) —
//     rewinding the announces, bumping the rollover GENERATION field (bits
//     56..61), and disarming, atomically. Announces that land between the
//     read and the rewind survive as the new epoch's small starting count.
//
// Safety is the exact-value epoch witness plus the generation field: every
// validation in the package — collect rounds and adoptions — compares
// exact 64-bit epoch values, and the rewind moves the generation,
// so no value read before the rewind can equal one read after it. The ABA
// a bare rewind would open (a reader's window spanning the rollover closing
// on a bytewise-equal epoch) therefore needs the generation to wrap all the
// way around: 64 rollovers, each at least the caller's announce floor apart,
// inside one reader's open window — with the slot also flushed every
// rollover. The floor (RolloverEpoch's minAnnounces, the watermark
// thresholds in cmd/slserve) makes that quantitatively absurd rather than
// merely unlikely: 64 x floor announces must fit between two adjacent steps
// of one reader. The generation field narrows raised-reader capacity from
// 2^14 to 2^8 concurrent starved readers (pressure bits 48..55), still far
// above any deployment's concurrent slow-path population.
//
// # Packed shard cores
//
// With WithBound, each shard core additionally packs its register into a
// single machine word when the per-shard encoding fits (internal/core's
// bound options; internal/interleave.Packed). The compact lane maps are what
// make this the common case: a shard hosts lanes/S writers, so its width
// budget is S times larger than the unsharded construction's, and every
// object register in the system — S shard words plus the epoch — is then a
// hardware XADD int64. The strong-linearizability argument is untouched
// (each shard operation is still one fetch&add on one register), and the
// packed sharded objects pass the same exhaustive model checks as the wide
// ones in the package tests.
package shard

import (
	"fmt"
	"sort"
	"sync/atomic"

	"stronglin/internal/core"
	"stronglin/internal/obs"
	"stronglin/internal/prim"
)

func validate(lanes, shards int) {
	if lanes < 1 || shards < 1 {
		panic(fmt.Sprintf("shard: lanes (%d) and shards (%d) must be >= 1", lanes, shards))
	}
	if shards > lanes {
		panic(fmt.Sprintf("shard: %d shards exceed %d lanes — shards would sit idle", shards, lanes))
	}
}

// Option configures the sharded constructors.
type Option func(*config)

type config struct {
	bound  int64 // -1: unbounded (wide cores)
	budget int   // failed validation rounds a read absorbs before raising pressure
	met    obs.ShardMetrics
}

// readSpinRounds is the default read retry budget (WithReadRetryBudget).
const readSpinRounds = 2

// helperRounds bounds the validation attempts of a writer's help collect,
// keeping writes wait-free: a helper whose collect is invalidated gives up —
// the invalidating write inherits the obligation at its own pressure check.
// One attempt suffices: an uninterfered helper always validates, and under
// interference the interferer re-helps (the bound also keeps the helped
// configurations inside the model checker's exploration budget).
const helperRounds = 1

// WithReadRetryBudget sets how many invalidated collect rounds a combining
// read absorbs before raising the pressure register and adopting helper
// deposits (default readSpinRounds). A budget of 0 requests help after the
// first failed round — the configuration the adopt-path model checks use to
// make adoption the common case. The budget affects progress only, never
// returned values: adopted and self-collected values pass the same closing
// epoch validation.
func WithReadRetryBudget(rounds int) Option {
	if rounds < 0 {
		panic(fmt.Sprintf("shard: WithReadRetryBudget(%d): budget must be non-negative", rounds))
	}
	return func(c *config) { c.budget = rounds }
}

// WithReadCache does nothing: it allocates no register and changes no step.
//
// Deprecated: the combine cache is deleted (a hit could return a value older
// than one another read had already returned). benchmark/replay.go is the
// only caller; the option goes with that call.
func WithReadCache(bool) Option {
	return func(*config) {}
}

// WithObs attaches optional scrape-layer instrumentation: histograms observed
// on CONTENDED read completions only (a read whose first round validates is
// never observed), so the uncontended fast path is untouched. Nil fields
// inside m are no-ops. The always-on HelpStats counters are kept regardless;
// this option adds the distribution view on top.
func WithObs(m obs.ShardMetrics) Option {
	return func(c *config) { c.met = m }
}

// pressureUnit is one raised reader in the epoch register's pressure bits.
// The epoch register's full layout (see the package comment's helping and
// live-rollover sections):
//
//	bits  0..47  announce count (monotone within a generation)
//	bits 48..55  raised-reader pressure (up to 256 concurrent starved reads)
//	bits 56..61  rollover generation (mod 64, bumped by RolloverEpoch)
//	bit  62      epochCutoverBit — a rollover is in flight
const pressureUnit = int64(1) << 48

// epochGenUnit is one rollover generation: RolloverEpoch's rewind adds it so
// that post-rollover epoch values can never compare equal to pre-rollover
// ones, no matter where the rewound announce count lands. 6 bits wide.
const epochGenUnit = int64(1) << 56

// epochGenCount is the generation field's modulus (64): the number of live
// rollovers before generations recur — the residual ABA window the package
// comment's live-rollover section bounds.
const epochGenCount = int64(epochCutoverBit / epochGenUnit)

// epochCutoverBit marks a rollover in flight on the epoch register itself,
// the same announce-as-final-step discipline as internal/core's mwCutoverBit.
// Set by RolloverEpoch's arm step, cleared atomically by its rewind step.
const epochCutoverBit = int64(1) << 62

// helpDeposit is a helper's epoch-validated collect: the combined value
// (value for the counter and max register, elems for the grow-only set)
// and the exact epoch value the helper's validation window closed at
// (pressure bits included — the adopting reader compares exact values).
// Immutable once deposited; epoch -1 is the no-deposit sentinel — the
// slot's initial value, restored by the last raised reader when it lowers
// pressure.
type helpDeposit struct {
	epoch int64
	value int64
	elems []int64
}

// helpKit is the per-object helping machinery: the help slot writers
// deposit into and the read retry budget. The pressure signal itself rides
// the object's epoch register. The atomic counters are telemetry only (never
// read by the protocol), and all of them are batched on the SLOW path — a
// read whose first round validates touches none of them, so the instrumented
// fast paths carry zero added atomic operations.
type helpKit struct {
	slot   prim.AnyRegister
	budget int
	met    obs.ShardMetrics

	deposits    atomic.Int64
	adopts      atomic.Int64
	adoptMisses atomic.Int64
	retries     atomic.Int64
	raises      atomic.Int64
}

func newHelpKit(w prim.World, name string, cfg config) *helpKit {
	return &helpKit{
		slot:   w.AnyRegister(name+".slot", &helpDeposit{epoch: -1}),
		budget: cfg.budget,
		met:    cfg.met,
	}
}

// announce performs a write's epoch announce — fetch&add(epoch, 1), exactly
// the step the pre-helping protocol performed — and inspects the returned
// previous value for raised pressure bits: learning of starving readers
// costs the write zero additional steps. While pressure is raised the write
// honours its help obligation: a bounded epoch-validated collect deposited
// in the help slot, keyed by the exact epoch value it validated at.
// Deposits are last-writer-wins; a stale deposit never corrupts a read (its
// epoch witness fails and the read retries), it only delays adoption.
func (k *helpKit) announce(t prim.Thread, epoch prim.FetchAddInt, collect func(prim.Thread) (int64, []int64)) {
	if epochPressure(epoch.FetchAddInt(t, 1)) == 0 {
		return
	}
	e := epoch.FetchAddInt(t, 0)
	for r := 0; r < helperRounds; r++ {
		v, elems := collect(t)
		e2 := epoch.FetchAddInt(t, 0)
		if e2 == e {
			k.slot.WriteAny(t, &helpDeposit{epoch: e2, value: v, elems: elems})
			k.deposits.Add(1)
			return
		}
		e = e2
	}
}

// HelpStats reports an object's helping telemetry: helper deposits made by
// writes, reads that returned an adopted value, adoption attempts whose
// closing epoch witness failed, failed validation rounds, and pressure-raise
// episodes. Safe to call from any goroutine; counts are slow-path events.
func (k *helpKit) HelpStats() obs.HelpStats {
	return obs.HelpStats{
		Deposits:    k.deposits.Load(),
		Adopts:      k.adopts.Load(),
		AdoptMisses: k.adoptMisses.Load(),
		Retries:     k.retries.Load(),
		Raises:      k.raises.Load(),
	}
}

// epochKit is the epoch register and help kit every sharded object carries,
// and the telemetry and live-rollover methods the three objects share.
type epochKit struct {
	epoch prim.FetchAddInt
	help  *helpKit
}

func newEpochKit(w prim.World, name string, cfg config) epochKit {
	return epochKit{
		epoch: w.FetchAddInt(name+".epoch", 0),
		help:  newHelpKit(w, name, cfg),
	}
}

// HelpStats reports the object's helping telemetry.
func (k *epochKit) HelpStats() obs.HelpStats { return k.help.HelpStats() }

// EpochAnnounces returns the object's epoch announce count — the position
// within the register's 2^48 announce lifetime budget (the rollover caveat in
// the package comment), the watermark migration planning triggers on.
func (k *epochKit) EpochAnnounces(t prim.Thread) int64 {
	return epochAnnounces(k.epoch.FetchAddInt(t, 0))
}

// PressureRaised returns how many readers currently hold the epoch's pressure
// bits raised (an instantaneous gauge, usually 0).
func (k *epochKit) PressureRaised(t prim.Thread) int64 {
	return epochPressure(k.epoch.FetchAddInt(t, 0))
}

// EpochGeneration returns how many live rollovers the object's epoch has
// absorbed (mod 64 — see the package comment's live-rollover section).
func (k *epochKit) EpochGeneration(t prim.Thread) int64 {
	return epochGeneration(k.epoch.FetchAddInt(t, 0))
}

// RolloverEpoch performs one live re-base of the object's epoch register:
// the announce count — the object's 2^48 lifetime write budget — is wound
// back to ~0 without stopping traffic (see the package comment's
// live-rollover section). Refused, returning (0, false), while the count is
// below minAnnounces: the floor is the quantitative ABA argument, so callers
// pass their watermark threshold, not 0. At most one rollover may run at a
// time (internal/migrate serialises); a crashed rollover is completed by
// calling again.
func (k *epochKit) RolloverEpoch(t prim.Thread, minAnnounces int64) (int64, bool) {
	return rebaseEpoch(t, k.epoch, k.help, minAnnounces)
}

// epochAnnounces extracts the announce count from an epoch value: the low 48
// bits, the position within the register's 2^48 announce lifetime budget (the
// rollover caveat in the package comment). The watermark the live-migration
// plans trigger on.
func epochAnnounces(e int64) int64 { return e & (pressureUnit - 1) }

// epochPressure extracts the raised-reader count from an epoch value: bits
// 48..55, masked so neither the rollover generation nor an in-flight
// cutover bit reads as phantom pressure.
func epochPressure(e int64) int64 { return (e >> 48) & (epochGenUnit/pressureUnit - 1) }

// epochGeneration extracts the rollover generation from an epoch value
// (bits 56..61): how many times RolloverEpoch has re-based the announce
// count, mod epochGenCount.
func epochGeneration(e int64) int64 { return (e >> 56) & (epochGenCount - 1) }

// rebaseEpoch is the live epoch rollover shared by the three objects (the
// package comment's live-rollover section): floor-check, ARM, FLUSH the help
// slot, then one rewind-bump-disarm fetch&add. Returns the
// announce count it wound back and whether a rollover ran at all — a count
// below minAnnounces is refused (and reported as (0, false)), EXCEPT when
// the cutover bit is already set, which marks a crashed migrator's rollover:
// the call adopts it and completes the remaining steps idempotently (the
// flush re-writes a sentinel, the rewind measures wound fresh).
//
// At most one rollover may run at a time (internal/migrate serialises);
// writers and readers need no quiescence — announces landing inside the
// window simply survive the rewind as the new generation's starting count,
// and every in-flight validation window spanning the rewind fails its exact
// epoch comparison (the generation moved) and retries against post-rollover
// values.
func rebaseEpoch(t prim.Thread, epoch prim.FetchAddInt, k *helpKit, minAnnounces int64) (int64, bool) {
	e := epoch.FetchAddInt(t, 0)
	if e&epochCutoverBit == 0 {
		if epochAnnounces(e) < minAnnounces {
			return 0, false
		}
		epoch.FetchAddInt(t, epochCutoverBit) // ARM: a rollover is in flight
	}
	// FLUSH: no combine validated against a pre-rollover epoch value may
	// survive the rewind. Clearing races a concurrent helper deposit exactly
	// like the last raised reader's clear does — a progress delay for one
	// reader, never a wrong value (adoption still demands its own closing
	// epoch witness, which the rewind's generation bump forces to miss).
	k.slot.WriteAny(t, &helpDeposit{epoch: -1})
	// REWIND: one fetch&add rewinds the announces measured this instant,
	// bumps the generation, and clears the cutover bit atomically. At the
	// generation modulus the +epochGenUnit carry would land on the cutover
	// bit; subtract the full field instead so the generation wraps to 0
	// with the bit still cleanly cleared.
	cur := epoch.FetchAddInt(t, 0)
	wound := epochAnnounces(cur)
	delta := epochGenUnit - wound - epochCutoverBit
	if epochGeneration(cur) == epochGenCount-1 {
		delta = -(epochGenCount-1)*epochGenUnit - wound - epochCutoverBit
	}
	epoch.FetchAddInt(t, delta)
	return wound, true
}

// WithBound declares the value domain [0, bound] of the object (max-register
// values, grow-only-set elements, or the counter's final count). Each shard
// core then packs its register into a single machine word whenever its
// per-shard encoding fits (internal/core's bound options) — sharding already
// narrows every shard's register by the compact lane maps, so a bound that is
// hopeless for the unsharded construction often packs per shard: "sharding
// narrows the register" becomes "sharding makes the register a machine word".
// Shards whose encoding does not fit fall back to the wide register
// individually.
//
// For the max register and the grow-only set the bound is enforced on every
// shard regardless of engine: writes beyond it panic uniformly, and reads
// simply never see such values. For the counter it is a capacity declaration
// only (a shard cannot see the global count, and any count up to 2^62-1 is
// machine-word representable); the packed counter panics only at that
// capacity.
func WithBound(bound int64) Option {
	if bound < 0 {
		panic(fmt.Sprintf("shard: WithBound(%d): bound must be non-negative", bound))
	}
	return func(c *config) { c.bound = bound }
}

func buildConfig(opts []Option) config {
	cfg := config{bound: -1, budget: readSpinRounds}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Counter is a monotone counter striped across S fetch&add cores. Inc touches
// the caller's shard and the epoch; Read performs an epoch-validated collect.
type Counter struct {
	shards []*core.FACounter
	epochKit
}

// NewCounter builds a sharded counter for the given lane count.
func NewCounter(w prim.World, name string, lanes, shards int, opts ...Option) *Counter {
	validate(lanes, shards)
	cfg := buildConfig(opts)
	c := &Counter{
		shards:   make([]*core.FACounter, shards),
		epochKit: newEpochKit(w, name, cfg),
	}
	for s := range c.shards {
		var coreOpts []core.CounterOption
		if cfg.bound >= 0 {
			// Any one shard's count is bounded by the whole counter's.
			coreOpts = append(coreOpts, core.WithCounterBound(cfg.bound))
		}
		c.shards[s] = core.NewFACounter(w, shardName(name, s), coreOpts...)
	}
	return c
}

// Shards returns the shard count S.
func (c *Counter) Shards() int { return len(c.shards) }

// Packed reports whether every shard core runs on a packed machine word.
func (c *Counter) Packed() bool {
	for _, s := range c.shards {
		if !s.Packed() {
			return false
		}
	}
	return true
}

// Inc increments the counter via the caller's shard and announces on the
// epoch; the announce's return value carries the pressure bits, so the
// write additionally honours its help obligation — depositing a validated
// sum — exactly while a reader is starving (see the package comment).
func (c *Counter) Inc(t prim.Thread) {
	c.shards[t.ID()%len(c.shards)].Inc(t)
	c.help.announce(t, c.epoch, c.collectSum)
}

// Add adds k (non-negative) via the caller's shard.
func (c *Counter) Add(t prim.Thread, k int64) {
	c.shards[t.ID()%len(c.shards)].Add(t, k)
	c.help.announce(t, c.epoch, c.collectSum)
}

// collectSum is the counter's help collect: the unvalidated sum (the
// helper's afterWrite wraps it in its own epoch validation).
func (c *Counter) collectSum(t prim.Thread) (int64, []int64) {
	return c.readSingleCollect(t), nil
}

// Read returns the counter value: an epoch-validated sum of one read per
// shard, adopting a helper's validated sum once starved (see the package
// comment's helping protocol).
func (c *Counter) Read(t prim.Thread) int64 {
	return validatedRead(t, c.epoch, c.help,
		func() (int64, bool) { return c.readSingleCollect(t), false },
		func(d *helpDeposit) int64 { return d.value })
}

// readSingleCollect is the naive combine kept for the negative model check:
// linearizable (the sum passes through every intermediate total) but not
// strongly linearizable (see the package comment's trap).
func (c *Counter) readSingleCollect(t prim.Thread) int64 {
	var sum int64
	for _, s := range c.shards {
		sum += s.Read(t)
	}
	return sum
}

// MaxRegister is a max register striped across S fetch&add unary cores.
// WriteMax touches the caller's shard and the epoch; ReadMax performs an
// epoch-validated collect.
type MaxRegister struct {
	shards []*core.FAMaxRegister
	epochKit
}

// NewMaxRegister builds a sharded max register for the given lane count.
// Shard s is a Theorem 1 construction hosting only the lanes mapped to it
// (l % S == s), compacted to indices l/S — so each shard's unary register is
// S times narrower than the unsharded construction's, which shrinks every
// fetch&add proportionally on top of splitting writer contention. With
// WithBound, that narrowing is what lets each shard pack into a machine word.
func NewMaxRegister(w prim.World, name string, lanes, shards int, opts ...Option) *MaxRegister {
	validate(lanes, shards)
	cfg := buildConfig(opts)
	m := &MaxRegister{
		shards:   make([]*core.FAMaxRegister, shards),
		epochKit: newEpochKit(w, name, cfg),
	}
	for s := range m.shards {
		coreOpts := []core.MaxRegOption{core.WithLaneMap(compactLane(shards))}
		if cfg.bound >= 0 {
			coreOpts = append(coreOpts, core.WithMaxRegBound(cfg.bound))
		}
		m.shards[s] = core.NewFAMaxRegister(w, shardName(name, s), laneCount(lanes, shards, s), coreOpts...)
	}
	return m
}

// Shards returns the shard count S.
func (m *MaxRegister) Shards() int { return len(m.shards) }

// Packed reports whether every shard core runs on a packed machine word.
func (m *MaxRegister) Packed() bool {
	for _, s := range m.shards {
		if !s.Packed() {
			return false
		}
	}
	return true
}

// WriteMax writes v (non-negative) via the caller's shard and announces on
// the epoch, honouring its help obligation when the announce's return value
// carries raised pressure bits (see the package comment).
func (m *MaxRegister) WriteMax(t prim.Thread, v int64) {
	m.shards[t.ID()%len(m.shards)].WriteMax(t, v)
	m.help.announce(t, m.epoch, m.collectMax)
}

// collectMax is the max register's help collect (unvalidated; afterWrite
// epoch-validates it).
func (m *MaxRegister) collectMax(t prim.Thread) (int64, []int64) {
	return m.readMaxSingleCollect(t), nil
}

// ReadMax returns the largest value written so far: an epoch-validated max of
// one read per shard, adopting a helper's validated max once starved (see
// the package comment's helping protocol).
func (m *MaxRegister) ReadMax(t prim.Thread) int64 {
	return validatedRead(t, m.epoch, m.help,
		func() (int64, bool) { return m.readMaxSingleCollect(t), false },
		func(d *helpDeposit) int64 { return d.value })
}

// readMaxSingleCollect is the broken combine kept for the negative model
// check: one unvalidated collect is not even linearizable. See the package
// comment's counterexample.
func (m *MaxRegister) readMaxSingleCollect(t prim.Thread) int64 {
	var max int64
	for _, sh := range m.shards {
		if v := sh.ReadMax(t); v > max {
			max = v
		}
	}
	return max
}

// GSet is a grow-only set striped across S fetch&add cores. Add touches the
// caller's shard and the epoch; Has witnesses membership directly or
// validates absence against the epoch.
type GSet struct {
	shards []*core.FAGSet
	epochKit
}

// NewGSet builds a sharded grow-only set for the given lane count. Like the
// max register, shard s hosts only its own lanes, compacted — narrowing each
// shard's element-bit register by the shard count (and, with WithBound,
// packing it into a machine word when the per-shard bitmap fits).
func NewGSet(w prim.World, name string, lanes, shards int, opts ...Option) *GSet {
	validate(lanes, shards)
	cfg := buildConfig(opts)
	g := &GSet{
		shards:   make([]*core.FAGSet, shards),
		epochKit: newEpochKit(w, name, cfg),
	}
	for s := range g.shards {
		coreOpts := []core.GSetOption{core.WithGSetLaneMap(compactLane(shards))}
		if cfg.bound >= 0 {
			coreOpts = append(coreOpts, core.WithGSetBound(cfg.bound))
		}
		g.shards[s] = core.NewFAGSet(w, shardName(name, s), laneCount(lanes, shards, s), coreOpts...)
	}
	return g
}

// Shards returns the shard count S.
func (g *GSet) Shards() int { return len(g.shards) }

// Packed reports whether every shard core runs on a packed machine word.
func (g *GSet) Packed() bool {
	for _, s := range g.shards {
		if !s.Packed() {
			return false
		}
	}
	return true
}

// Add inserts x (non-negative) via the caller's shard and announces on the
// epoch, honouring its help obligation when the announce's return value
// carries raised pressure bits: the grow-only set's helper deposits the
// full validated UNION, which answers any starving membership query or
// enumeration.
func (g *GSet) Add(t prim.Thread, x int64) {
	g.shards[t.ID()%len(g.shards)].Add(t, x)
	g.help.announce(t, g.epoch, g.collectUnion)
}

// collectUnion is the set's help collect: the unvalidated shard union
// (afterWrite epoch-validates it).
func (g *GSet) collectUnion(t prim.Thread) (int64, []int64) {
	return 0, g.unionSingleCollect(t)
}

// Has reports membership of x. A hit needs no validation — membership only
// grows, so "present" stays appendable after any later operations; a miss is
// epoch-validated like the other combining reads, and a starved miss adopts
// a helper's validated union (absent from the union at the witnessed epoch
// means absent, full stop).
func (g *GSet) Has(t prim.Thread, x int64) bool {
	return validatedRead(t, g.epoch, g.help,
		func() (bool, bool) {
			found := g.hasSingleCollect(t, x)
			return found, found // a witnessed hit is final without validation
		},
		func(d *helpDeposit) bool {
			for _, y := range d.elems {
				if y == x {
					return true
				}
			}
			return false
		})
}

// hasSingleCollect is the naive combine kept for the negative model check:
// linearizable (a miss at t_s implies a miss at t_1 by monotonicity) but not
// strongly linearizable.
func (g *GSet) hasSingleCollect(t prim.Thread, x int64) bool {
	for _, s := range g.shards {
		if s.Has(t, x) {
			return true
		}
	}
	return false
}

// Elems returns the members in ascending order: an epoch-validated union of
// the shards, adopting a helper's validated union once starved.
func (g *GSet) Elems(t prim.Thread) []int64 {
	out := validatedRead(t, g.epoch, g.help,
		func() ([]int64, bool) { return g.unionSingleCollect(t), false },
		func(d *helpDeposit) []int64 { return append([]int64(nil), d.elems...) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// unionSingleCollect is one unvalidated union of the shards, deduplicated
// (validatedRead and afterWrite wrap it in the epoch validation).
func (g *GSet) unionSingleCollect(t prim.Thread) []int64 {
	seen := make(map[int64]struct{})
	var union []int64
	for _, s := range g.shards {
		for _, x := range s.Elems(t) {
			if _, dup := seen[x]; !dup {
				seen[x] = struct{}{}
				union = append(union, x)
			}
		}
	}
	return union
}

// validatedRead is the package's combining-read protocol, written once:
// snapshot the epoch, run collect, re-read the epoch, and retry until the
// epoch is unchanged — at which point every write that completed before the
// final epoch read had announced before the window opened, so collect saw
// its shard step (the strong-linearizability argument in the package
// comment). A collect may short-circuit by returning final=true for values
// that need no validation (e.g. a witnessed membership hit, which
// monotonicity keeps true forever).
//
// A read past its retry budget raises the pressure register and from then
// on reads the help slot before each closing epoch read: when its own round
// fails validation but the deposit's epoch equals the closing read — the
// read's final shared step, performed AFTER the slot read — it returns
// adopt(deposit) instead. The adopted value passed the identical epoch
// validation (the helper's), witnessed still-current by the read's own
// final step; see the package comment's helping section.
func validatedRead[T any](t prim.Thread, epoch prim.FetchAddInt, k *helpKit,
	collect func() (v T, final bool), adopt func(*helpDeposit) T) T {
	e := epoch.FetchAddInt(t, 0)
	raised, adopted := false, false
	var failedRounds, missed int64
	var out T
	for spins := 0; ; spins++ {
		v, final := collect()
		if final {
			out = v
			break
		}
		// The adoption candidate must be read BEFORE the closing epoch read:
		// the witness has to be the later of the two, or a write could
		// announce (and complete) between them unseen.
		var dep *helpDeposit
		if raised {
			if d, ok := k.slot.ReadAny(t).(*helpDeposit); ok && d.epoch >= 0 {
				dep = d
			}
		}
		e2 := epoch.FetchAddInt(t, 0)
		if e2 == e {
			out = v
			break
		}
		failedRounds++
		if dep != nil {
			if dep.epoch == e2 {
				out = adopt(dep)
				adopted = true
				break
			}
			missed++ // deposit present but an announce moved past it
		}
		e = e2
		if spins >= k.budget && !raised {
			// Raise pressure in the epoch's high bits; the XADD's return
			// value gives the exact post-raise epoch, the next round's
			// baseline (the raise is ordinary epoch movement to every other
			// reader's validation).
			raised = true
			e = epoch.FetchAddInt(t, pressureUnit) + pressureUnit
		}
	}
	// Telemetry, batched: a read whose first round validates (or whose first
	// collect is final) skips all of it — the uncontended fast path carries
	// zero added atomic ops.
	if failedRounds > 0 {
		k.retries.Add(failedRounds)
		if missed > 0 {
			k.adoptMisses.Add(missed)
		}
		k.met.ReadRounds.Observe(failedRounds)
	}
	if raised {
		k.raises.Add(1)
		// Lowering returns the previous epoch for free: the LAST raised
		// reader clears the slot, so deposits never outlive the pressure
		// episode that solicited them (a persistent deposit would reopen an
		// adopt window across the epoch's 2^48-announce rollover; clearing
		// bounds the exposure to one episode). The clear may race a
		// concurrent raise and clobber a fresher deposit — a progress delay
		// for that reader, never a wrong value: adoption still demands the
		// closing epoch witness.
		if epochPressure(epoch.FetchAddInt(t, -pressureUnit)) == 1 {
			k.slot.WriteAny(t, &helpDeposit{epoch: -1})
		}
		if adopted {
			k.adopts.Add(1)
		}
	}
	return out
}

func shardName(base string, s int) string {
	return fmt.Sprintf("%s.shard%d", base, s)
}

// laneCount returns how many of the lanes in [0, lanes) map to shard s,
// i.e. |{l : l % shards == s}|.
func laneCount(lanes, shards, s int) int {
	return (lanes - s + shards - 1) / shards
}

// compactLane maps a process ID to its shard-local lane index: the processes
// hitting shard s are s, s+S, s+2S, ..., compacted to 0, 1, 2, ....
func compactLane(shards int) func(id int) int {
	return func(id int) int { return id / shards }
}
