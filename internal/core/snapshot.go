package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"stronglin/internal/interleave"
	"stronglin/internal/obs"
	"stronglin/internal/prim"
)

// SnapshotAPI is the single-writer atomic snapshot interface used by the
// simple-type construction: Update writes the caller's component, Scan
// returns the full view.
type SnapshotAPI interface {
	Update(t prim.Thread, v int64)
	Scan(t prim.Thread) []int64
}

// FASnapshot is the wait-free strongly-linearizable n-component
// single-writer atomic snapshot of Section 3.2, built from a single
// unbounded fetch&add register R.
//
// Component i (owned by process i) is stored, in binary, in bit lane i of R.
// Update(v) computes the lane delta posAdj−negAdj between the binary
// encodings of the previous and the new value and applies it with one
// fetch&add; Update with an unchanged value performs fetch&add(R, 0). Scan
// is fetch&add(R, 0) followed by local decoding.
//
// Every operation performs exactly one fetch&add, which is its linearization
// point.
//
// # Engine selection
//
// With WithSnapshotBound the constructor picks the cheapest register
// substrate the declared bound admits, by the codec's own budget arithmetic:
//
//   - single packed word, when n x FieldWidth(maxValue) <= 63: each component
//     is a fixed-width binary field of one hardware XADD register
//     (prim.FetchAddInt). Update is one XADD of the signed in-lane field
//     delta, Scan one XADD(0) plus shift-and-mask. One fetch&add per
//     operation: the wide linearization argument transfers unchanged.
//
//   - multi-word, when FieldWidth(maxValue) <= interleave.LaneBits (48): the
//     components are striped across k XADD words (interleave.MultiPacked),
//     each carrying a 16-bit per-word sequence field above its lane payload.
//     Word 0's sequence field doubles as the ANNOUNCE counter. Update is an
//     XADD on the owning word — the field delta plus a sequence bump,
//     landing atomically, the linearization point — followed, when the
//     owning word is not word 0, by an announce bump of word 0's sequence
//     field; an update owned by word 0 announces and publishes in the same
//     single XADD. Updates are wait-free with a fixed own-step linearization
//     point. Scan is a DOUBLE COLLECT with an ANCHORED word order: read the
//     k words repeatedly — words 1..k-1 first, word 0 LAST — until two
//     consecutive collects are identical (payload AND sequence fields),
//     feeding every failed read back in as the next round's baseline. The
//     validating round's own word-0 read is then the scan's final shared
//     step and doubles as the closing announce check: an update announced
//     before it either has its payload in the pair's baseline or landed
//     inside the pair's interval for some word and invalidated the round —
//     so no separate closing re-read is needed (word 0 read FIRST, the
//     unanchored order, is the negative exhibit).
//
//     Scans that keep failing are HELPED. A scan that exhausts its retry
//     budget raises a pressure register (one XADD; the PR 4 writer-backoff
//     hint promoted from scheduling advice to a protocol step). Every
//     value-changing update reads the pressure register after announcing;
//     while it is raised the updater performs a bounded validated collect of
//     its own — a double collect, no closing read — and deposits the raw
//     validated words in the help slot, a register holding the freshest
//     helper view keyed by its word-0 value (payload plus sequence/announce
//     field). A starving scan adopts the deposit: it re-reads word 0 as its
//     final view-determining step and takes the deposited view only if word
//     0 still equals the deposit's word 0 — the SAME closing announce check
//     the unhelped path performs against its own collect pair, so adoption
//     cannot resurrect a past state (an update announced after the helper's
//     validation moves word 0's sequence field and forces a retry; the
//     negative twin in the package tests pins that skipping this witness is
//     linearizable but NOT strongly linearizable). Adoption bounds the
//     scanner's own steps against the update storms that starve the plain
//     double collect — any single-updater storm in particular, since each
//     storm update must refresh the deposit before its next announce can
//     invalidate it (the progress witness in the package tests pins the
//     fixed own-step budget on the schedule that provably starves the
//     unhelped scan). Against adversarial multi-writer schedules a retry of
//     the adopt check still consumes a fresh announce, so scans remain
//     lock-free in the strict sense — the helpers shrink the starvation
//     window from the full k-word collect to the two steps between the slot
//     read and the word-0 witness (cf. the helping impossibilities around
//     consistent refereeing for why a scheduler this strong cannot be
//     defeated outright).
//
//     BOTH validations are load-bearing, and the package tests pin a
//     counterexample for each half alone. Announce-only validation (one
//     collect bracketed by announce-counter reads) is not even linearizable:
//     an update's payload lands before its announce, so two in-flight
//     updates on different words can be split inconsistently between two
//     concurrent scans that both validate — incomparable views no update
//     order explains (the sequence bump landing IN the payload XADD is what
//     closes that window). Double collect alone is linearizable — two
//     identical consecutive collects pin the k-word state to a real instant
//     inside the scan, so every view is a true state and any two views are
//     comparable — but NOT strongly linearizable: the pinned instant may lie
//     in the PAST, so an update can land after a word's final validated read
//     and RETURN while the scan is finishing, forcing the prefix-closed
//     linearization to commit the scan's view before it is determined (a
//     second writer still threatens the unread words). The closing announce
//     check restores the commitment: every update that announced before the
//     scan's final step is either in the view or forces a retry, so a
//     returned view reflects all updates that completed before the scan
//     did, and appending the scan after them is always consistent. Strong
//     linearizability is decided mechanically by the execution-tree game
//     checker, including on the cross-word configurations where each lone
//     validation fails.
//
//   - wide big.Int register, when no bound is declared — or when the bound
//     needs 49..63-bit fields, which exceed the validated multi-word
//     payload budget (one 48+-bit field per word buys little over a wide
//     limb anyway).
//
// The bound is enforced identically on every engine (Update past it panics),
// so behaviour never depends on which substrate was selected.
type FASnapshot struct {
	n     int
	name  string
	codec interleave.Codec
	w     prim.World
	r     prim.FetchAdd    // wide engine; nil otherwise
	rp    prim.FetchAddInt // single packed word; nil otherwise
	pc    interleave.Packed
	mp    interleave.MultiPacked
	bound int64   // -1: unbounded (wide); >= 0: declared max component value
	prev  []int64 // prev[i] is accessed only by process i

	// Multi-word engine (nil on the single-register engines): eng is
	// generation 0 — the k component words, the pressure register counting
	// scans past their retry budget, the help slot holding the freshest
	// helper deposit. With live re-base on
	// (WithLiveRebase) eng is merely the FIRST generation: Rebase rolls the
	// state onto successors chained through the generation next pointers (see
	// rebase.go), and curGen[i] pins the generation process i last used
	// (process-local — curGen[i] is only accessed by process i; nil when
	// re-base is off, in which case eng is the engine forever). spinBudget is
	// how many invalidated rounds a scan absorbs before raising pressure
	// (WithScanRetryBudget).
	eng        *mwGen
	curGen     []*mwGen
	rebaseOn   bool
	genMu      sync.Mutex
	nextGens   map[int64]*mwGen
	spinBudget int

	// Telemetry (never read by the protocol). All counts are batched on the
	// SLOW path only — a scan that validates its first round and an update
	// that owes no help touch none of them, so the instrumented fast paths
	// carry zero added atomic operations. helpDeposits/scanAdopts predate the
	// rest; scanRetries counts failed validation rounds, pressureRaises
	// counts raise episodes (scans that exhausted their budget), adoptMisses
	// counts adoption attempts whose closing word-0 witness failed.
	helpDeposits   atomic.Int64
	scanAdopts     atomic.Int64
	scanRetries    atomic.Int64
	pressureRaises atomic.Int64
	adoptMisses    atomic.Int64

	// rebaseCounters adds the live re-base telemetry (rebase.go), same
	// slow-path-only discipline: cutovers, parks and diverts are rare by
	// construction.
	rebaseCounters

	// met is the optional scrape-layer instrumentation (WithSnapshotObs);
	// nil fields are no-ops, observed on contended completions only.
	met obs.SnapMetrics
}

// mwDeposit is a helper's validated collect: the raw k words of a double
// collect whose two reads were bit-identical, words[0] carrying the word-0
// payload+sequence value the adopting scan's closing witness must still see.
// The slice is immutable once deposited. An empty words slice is the
// no-deposit sentinel: the slot's initial value, restored by the last
// raised scan when it lowers pressure.
type mwDeposit struct {
	words []int64
}

var _ SnapshotAPI = (*FASnapshot)(nil)

// scanSpinRounds is the default retry budget: how many invalidated collects
// a multi-word scan absorbs before raising the pressure register and trying
// to adopt helper deposits (WithScanRetryBudget overrides it).
const scanSpinRounds = 2

// helperRounds bounds the validation attempts of an updater's help collect,
// keeping updates wait-free: a helper whose collect is invalidated gives up
// — the invalidating update inherits the obligation at its own pressure
// check. One attempt suffices: an uninterfered helper always validates, and
// under interference the interferer re-helps (the bound also keeps the
// helped configurations inside the model checker's exploration budget).
const helperRounds = 1

// scanStackWords is the largest word count whose collect buffer lives on the
// scanning goroutine's stack; larger registers fall back to a heap buffer
// per scan. 64 words cover every multi-word shape the serving stack builds
// (up to 64 full-width 48-bit lanes, or thousands of narrow ones).
const scanStackWords = 64

// SnapshotOption configures NewFASnapshot.
type SnapshotOption func(*FASnapshot)

// WithSnapshotBound declares that every component value is in [0, maxValue],
// and makes Update panic on values beyond it (like negatives). The bound
// selects the register engine (see the type comment): one packed machine
// word when n x FieldWidth(maxValue) <= 63 bits, the multi-word k-XADD
// engine when the field fits a validated word (FieldWidth <=
// interleave.LaneBits), the wide big.Int register otherwise. The bound is
// enforced on every engine, so behaviour does not depend on which was
// selected.
func WithSnapshotBound(maxValue int64) SnapshotOption {
	if maxValue < 0 {
		panic(fmt.Sprintf("core: WithSnapshotBound(%d): bound must be non-negative", maxValue))
	}
	return func(s *FASnapshot) { s.bound = maxValue }
}

// WithScanRetryBudget sets how many invalidated collect rounds a multi-word
// scan absorbs before raising the pressure register and adopting helper
// deposits (default scanSpinRounds). A budget of 0 requests help after the
// first failed round — the configuration the adopt-path model checks and the
// differential fuzzers use to make adoption the common case. The budget
// affects progress only, never the returned views: adopted and self-collected
// views pass the same closing word-0 witness. No-op on the single-register
// engines, whose scans are one fetch&add.
func WithScanRetryBudget(rounds int) SnapshotOption {
	if rounds < 0 {
		panic(fmt.Sprintf("core: WithScanRetryBudget(%d): budget must be non-negative", rounds))
	}
	return func(s *FASnapshot) { s.spinBudget = rounds }
}

// WithViewCache does nothing: it allocates no register and changes no step.
//
// Deprecated: the view cache is deleted (a hit could return a view older than
// one another scan had already returned). benchmark/replay.go is the only
// caller; the option goes with that call.
func WithViewCache(bool) SnapshotOption {
	return func(*FASnapshot) {}
}

// WithSnapshotObs attaches optional scrape-layer instrumentation: histograms
// observed on CONTENDED scan completions only (a scan that validates its
// first round is never observed), so the uncontended fast path is untouched.
// Nil fields inside m are no-ops. The always-on HelpStats counters are kept
// regardless; this option adds the distribution view on top.
func WithSnapshotObs(m obs.SnapMetrics) SnapshotOption {
	return func(s *FASnapshot) { s.met = m }
}

// NewFASnapshot allocates the construction for n processes using a single
// fetch&add register named name+".R" (or, on the multi-word engine, words
// name+".R0".."R<k-1>"). Components are initially 0.
func NewFASnapshot(w prim.World, name string, n int, opts ...SnapshotOption) *FASnapshot {
	s := &FASnapshot{
		n:          n,
		name:       name,
		codec:      interleave.MustNew(n),
		w:          w,
		bound:      -1,
		spinBudget: scanSpinRounds,
		prev:       make([]int64, n),
	}
	for _, o := range opts {
		o(s)
	}
	if s.bound >= 0 {
		width := interleave.FieldWidth(s.bound)
		if pc, ok := interleave.NewPacked(n, width); ok {
			s.pc = pc
			s.rp = w.FetchAddInt(name+".R", 0)
			return s
		}
		if mp, ok := interleave.NewMultiPacked(n, width); ok {
			s.mp = mp
			s.eng = s.newGen(0)
			if s.rebaseOn {
				s.curGen = make([]*mwGen, n)
				for i := range s.curGen {
					s.curGen[i] = s.eng
				}
			}
			return s
		}
	}
	s.r = w.FetchAdd(name + ".R")
	return s
}

// Packed reports whether the register is a single packed machine word.
func (s *FASnapshot) Packed() bool { return s.rp != nil }

// Multiword reports whether the components are striped across the k-XADD
// multi-word engine.
func (s *FASnapshot) Multiword() bool { return s.eng != nil }

// Words returns the number of machine words holding components: 1 on the
// single packed word, k on the multi-word engine, 0 on the wide register
// (whose width is unbounded).
func (s *FASnapshot) Words() int {
	switch {
	case s.rp != nil:
		return 1
	case s.eng != nil:
		return len(s.eng.words)
	default:
		return 0
	}
}

// Engine names the selected register substrate: "packed", "multiword" or
// "wide".
func (s *FASnapshot) Engine() string {
	switch {
	case s.rp != nil:
		return "packed"
	case s.eng != nil:
		return "multiword"
	default:
		return "wide"
	}
}

// Bound returns the declared maximum component value, or -1 when unbounded.
func (s *FASnapshot) Bound() int64 { return s.bound }

// HelpStats reports the multi-word helping telemetry: helper deposits, scans
// that returned an adopted view, adoption attempts whose closing word-0
// witness failed, failed scan validation rounds, and pressure-raise episodes.
// All fields are 0 on the single-register engines (their one-step scans never
// need help or retry) and in any run where every scan validated its first
// round. Safe to call from any goroutine; counts are slow-path events only.
func (s *FASnapshot) HelpStats() obs.HelpStats {
	return obs.HelpStats{
		Deposits:    s.helpDeposits.Load(),
		Adopts:      s.scanAdopts.Load(),
		AdoptMisses: s.adoptMisses.Load(),
		Retries:     s.scanRetries.Load(),
		Raises:      s.pressureRaises.Load(),
	}
}

// SeqWatermark returns the highest per-word sequence-field value currently
// visible across the component words — the lifetime watermark of the
// multi-word engine's mod-2^16 sequence budget (interleave.SeqBits). The
// counters wrap by design, so the watermark is a position within the current
// wrap window, not a total update count; approaching 2^16−1 means the next
// wrap is near, which is only a hazard if a scan could be descheduled across
// it (see interleave.MultiPacked). 0 on the single-register engines, which
// have no sequence fields. It reads the words with fetch&add(0) steps —
// the LIVE generation's words, with re-base on: a completed cutover resets
// the sequence fields, which is exactly the renewal the watermark drives.
func (s *FASnapshot) SeqWatermark(t prim.Thread) int64 {
	if s.eng == nil {
		return 0
	}
	g := s.eng
	if s.rebaseOn {
		g = s.liveGen(t)
	}
	var max int64
	for _, w := range g.words {
		if q := s.mp.Seq(w.FetchAddInt(t, 0)); q > max {
			max = q
		}
	}
	return max
}

// Update writes v (which must be non-negative) to the caller's component.
// On the single-register engines Update is one fetch&add, its linearization
// point. On the multi-word engine the payload XADD is the linearization
// point, and it carries the owning word's sequence-field bump in the SAME
// atomic step — so there is never a window in which an update's payload is
// visible to collects but invisible to their validation: at every instant a
// word's sequence field counts exactly the value changes its payload
// reflects. The announce bump of word 0's sequence field that follows (for
// updates not owned by word 0; a word-0 update's payload XADD is already
// its announce) marks completion for the scans' closing check: an update is
// not complete until it has announced, and a scan whose view misses the
// payload retries rather than returning once the announce lands — which is
// what lets the prefix-closed linearization leave an in-flight update after
// any scan it is invisible to (see the type comment).
//
// After announcing, a value-changing update reads the pressure register and,
// while any scan is past its retry budget, performs its help obligation: a
// bounded validated collect deposited in the help slot (helpScan). All the
// help steps trail the update's linearization point and touch neither its
// response nor its component, so the update's own argument is unchanged; the
// helper bound keeps updates wait-free (payload + announce + pressure read +
// at most (helperRounds+1)·k collect reads + one deposit).
func (s *FASnapshot) Update(t prim.Thread, v int64) {
	if v < 0 {
		panic(fmt.Sprintf("core: FASnapshot.Update(%d): values must be non-negative", v))
	}
	if s.bound >= 0 && v > s.bound {
		panic(fmt.Sprintf("core: FASnapshot.Update(%d): value exceeds the declared bound %d", v, s.bound))
	}
	i := t.ID()
	if s.eng != nil {
		g := s.engineFor(t)
		if v == s.prev[i] {
			// Unchanged value: the XADD(0) on the owning word is the whole
			// operation (its linearization point, like the packed and wide
			// fast paths). The word is untouched, so there is no change for
			// a collect to observe, nothing for its validation to miss, and
			// no completion worth announcing — a scan linearizes correctly
			// on either side of this operation, and since the update
			// invalidates no collect, it owes no help either. Safe even on a
			// generation a cutover has since retired: re-basing carries the
			// lane values over, so the successor's lane equals prev[i] too.
			g.words[s.mp.WordOf(i)].FetchAddInt(t, 0)
			prim.MarkLinPoint(s.w, t)
			return
		}
		// Field delta plus sequence bump, one XADD: the linearization point.
		// For a word-0 owner the bump is also the announce.
		w := s.mp.WordOf(i)
		g.words[w].FetchAddInt(t, s.mp.FieldDelta(s.prev[i], v, i))
		prim.MarkLinPoint(s.w, t)
		s.prev[i] = v
		if w != 0 {
			g.words[0].FetchAddInt(t, interleave.SeqIncrement) // announce completion
		}
		// The pressure poll — already a protocol step (the helping
		// obligation) — doubles as the cutover check: a raised count means a
		// scan is starving and the update owes a help collect; the cutover
		// bit means a migrator armed this generation and the update must
		// reconcile itself onto the successor (its XADD above may have missed
		// the final collect). Divert wins when both hold: the starving scan
		// is parking on the migrator's deposit anyway.
		if p := g.pressure.FetchAddInt(t, 0); p != 0 {
			if s.rebaseOn && p&mwCutoverBit != 0 {
				s.divertUpdate(t, g, i, v)
			} else {
				s.helpScan(t, g) // a scan is starving: collect and deposit for it
			}
		}
		return
	}
	if v == s.prev[i] {
		if s.rp != nil {
			s.rp.FetchAddInt(t, 0)
		} else {
			s.r.FetchAdd(t, zero)
		}
		prim.MarkLinPoint(s.w, t)
		return
	}
	if s.rp != nil {
		s.rp.FetchAddInt(t, s.pc.FieldDelta(s.prev[i], v, i))
	} else {
		s.r.FetchAdd(t, s.codec.Delta(interleave.SmallInt(s.prev[i]), interleave.SmallInt(v), i))
	}
	prim.MarkLinPoint(s.w, t)
	s.prev[i] = v
}

// Scan returns the current view.
func (s *FASnapshot) Scan(t prim.Thread) []int64 {
	return s.ScanInto(t, make([]int64, s.n))
}

// ScanInto is Scan writing the view into a caller-provided slice of length n
// (returned for convenience). It is allocation-free on every engine (on the
// multi-word engine: up to scanStackWords words): on the wide register one
// fetch&add(0) plus a walk over the shared word's set bits
// (interleave.Codec.DecodeInto, which only reads it); one XADD(0) plus
// shift-and-mask on the single packed word; on the
// multi-word engine an ANCHORED DOUBLE COLLECT — read the k words
// repeatedly, words 1..k-1 first and word 0 LAST, until two consecutive
// collects are identical (each failed read seeding the next round's
// baseline); the validating round's word-0 read, the scan's final shared
// step, is the closing announce check.
//
// The double collect makes the view a true state: identical means
// bit-identical words, sequence fields included, and every value-changing
// update bumps its word's sequence field in the same XADD as its payload
// delta, so two identical reads of word j pin j as unmodified throughout
// the interval between them (up to the 2^16 seqlock wrap caveat, see
// interleave.MultiPacked). The k per-word intervals of a validated pair all
// contain the instant between its two collects, so the returned view IS the
// register state at a real moment inside the scan — in particular, any two
// scans return states of the same single timeline, so their views are
// always comparable. The anchored order then makes the pair's LAST word-0
// read anchor that moment against completions: every update announces on
// word 0's sequence field after (or, for word-0 owners, in the same XADD
// as) its payload, so an update that announced before the scan's final step
// either announced before the pair's first word-0 read — its payload XADD
// predates the announce, and a pair it did not invalidate read its word
// after the payload landed, so the payload is in the view — or moved word
// 0's sequence field between the pair's two word-0 reads and invalidated
// the round. A returned view therefore reflects every update that completed
// before the scan returned, which is exactly what lets the scan be APPENDED
// to a prefix-closed linearization that has already committed those
// updates; the same argument is why a failed round only reseeds the
// baseline rather than discarding the pair history. Reading word 0 FIRST
// instead breaks exactly this anchoring (scanUnanchoredInto, the negative
// exhibit).
//
// Scans that exhaust their retry budget (WithScanRetryBudget, default
// scanSpinRounds) raise the pressure register, obliging every subsequent
// value-changing update to deposit a validated collect of its own in the
// help slot. From then on each round is preceded by a slot read, and a
// round that fails attempts an ADOPT: take the deposited view if the
// round's final word-0 read — the scan's most recent shared step, performed
// AFTER the slot read — still equals the deposit's word 0. That is the
// identical closing announce check applied to a helper's pair instead of
// the scan's own, so the adopted view carries the
// same guarantee: it is a true state (the helper's double collect) that
// every update announced before the scan's final step is in (else word 0's
// sequence field moved and the adopt retries). Adoption is what bounds a
// starved scanner's own steps: each storm update must refresh the deposit
// before announcing again, so any single-updater storm — the schedule that
// starves the plain double collect unboundedly, pinned by the progress
// witness — now feeds the scanner a fresh deposit it adopts within a fixed
// budget. Under adversarial multi-writer schedules an adopt retry still
// consumes a fresh announce (lock-free in the strict sense; see the type
// comment).
//
// The multi-word scan deliberately declares no linearization-point
// certificate: its linearization point is pinned by the pair of collects
// that validates (the helper's pair, on an adopted view), which is only
// identified in hindsight — while those reads execute, whether the pair
// validates (and survives its closing check) still depends on updates that
// have not happened — so no mark placed during execution names the right
// step on every branch (the package tests pin the certificate checker
// rejecting any fixed marking). Strong linearizability is instead decided
// by the execution-tree game checker, exactly as for internal/shard's
// epoch-validated combining reads.
func (s *FASnapshot) ScanInto(t prim.Thread, view []int64) []int64 {
	if len(view) != s.n {
		panic(fmt.Sprintf("core: FASnapshot.ScanInto: view has length %d, want %d", len(view), s.n))
	}
	if s.eng != nil {
		// With live re-base on, a scan may cross generations: a cutover
		// discovered mid-collect parks the scan (scanCollectGen returns the
		// installed successor) and the scan restarts there, re-pinning the
		// process's generation. With re-base off the loop body runs exactly
		// once on generation 0 — the pre-rebase protocol, step for step.
		g := s.engineFor(t)
		for {
			next := s.scanCollectGen(t, g, view)
			if next == nil {
				return view
			}
			s.setGen(t, next)
			g = next
		}
	}
	if s.rp != nil {
		word := s.rp.FetchAddInt(t, 0)
		prim.MarkLinPoint(s.w, t)
		for i := range view {
			view[i] = s.pc.Lane(word, i)
		}
		return view
	}
	word := s.r.FetchAdd(t, zero)
	prim.MarkLinPoint(s.w, t)
	return s.codec.DecodeInto(word, view)
}

// scanCollectGen is the multi-word helped double collect on generation g. It
// returns nil after writing the view, or the installed successor generation
// when a cutover parked the scan without a view (the caller restarts there).
func (s *FASnapshot) scanCollectGen(t prim.Thread, g *mwGen, view []int64) *mwGen {
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	raised, adopted := false, false
	var next *mwGen
	var failedRounds, missed int64
	for spins := 0; ; spins++ {
		// The adoption candidate must be read BEFORE the round's word-0
		// read: the witness has to be the later of the two, or an update
		// could announce (and complete) between them unseen.
		var dep *mwDeposit
		if raised {
			if d, ok := g.slot.ReadAny(t).(*mwDeposit); ok && len(d.words) == len(g.words) {
				dep = d
			}
		}
		valid, cut := s.roundAnchoredCut(t, g, cur, s.rebaseOn)
		if valid {
			if !cut {
				break // the round's own word-0 read is the closing witness
			}
			// PARK: the round validated but a cutover is in flight — reading
			// the bit INSIDE the pair (between the words-1..k-1 reads and the
			// closing word-0 read) is what proves a bit-clear return precedes
			// the install (see rebase.go). Re-read the slot for the
			// migrator's final deposit and take ONE fresh word-0 read as the
			// scan's final shared step: on a match adopt the deposit — the
			// standard closing witness, applied to the final collect — else
			// the flip announce has landed, so await the install and restart
			// on the successor. One attempt only: an unbounded adopt retry
			// here could spin forever against the migrator's own announces.
			pd, _ := g.slot.ReadAny(t).(*mwDeposit)
			if pd != nil && len(pd.words) == len(g.words) &&
				g.words[0].FetchAddInt(t, 0) == pd.words[0] {
				copy(cur, pd.words)
				adopted = true
				s.parkAdopts.Add(1)
				break
			}
			s.parkWaits.Add(1)
			next = s.awaitNext(t, g)
			break
		}
		failedRounds++
		// The round failed, but its reads are the next round's baseline —
		// and cur[0] now holds the word-0 value the round read LAST, the
		// scan's most recent shared step: the witness for adoption. (A
		// cutover's arm announce moves word 0, so a stale pre-arm deposit
		// can never pass this check either.)
		if dep != nil {
			if cur[0] == dep.words[0] {
				copy(cur, dep.words)
				adopted = true
				break
			}
			missed++ // deposit present but an announce moved past it
		}
		if spins >= s.spinBudget && !raised {
			raised = true
			g.pressure.FetchAddInt(t, 1)
		}
	}
	// Telemetry, batched: a scan that validated its first round skips all
	// of it — the uncontended fast path carries zero added atomic ops.
	if failedRounds > 0 {
		s.scanRetries.Add(failedRounds)
		if missed > 0 {
			s.adoptMisses.Add(missed)
		}
		s.met.ScanRounds.Observe(failedRounds)
	}
	if raised {
		s.pressureRaises.Add(1)
		// Lowering returns the previous count for free: the LAST raised
		// scan clears the slot, so deposits never outlive the pressure
		// episode that solicited them. A deposit that persisted across
		// idle epochs would widen the 2^16 seq-wrap ABA caveat from
		// "wraps inside one scan's window" to "wraps over the deposit's
		// unbounded lifetime"; clearing restores the original scope.
		// (The clear may race a concurrent raise and clobber a fresher
		// deposit — a progress delay for that scan, never a wrong view:
		// adoption still demands the word-0 witness.) On an ARMED
		// generation the clear can never fire: the cutover bit is set in
		// the same register and never cleared, so the previous count reads
		// bit+1, not 1 — the migrator's final deposit outlives every
		// pressure episode, which is what parked stragglers adopt.
		if g.pressure.FetchAddInt(t, -1) == 1 {
			g.slot.WriteAny(t, &mwDeposit{})
		}
		if adopted {
			s.scanAdopts.Add(1)
		}
	}
	if next != nil {
		return next // parked across the cutover: restart on the successor
	}
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	return nil
}

// collectBuf returns a k-word collect buffer backed by the caller's stack
// array when it fits, falling back to the heap for larger registers (the
// call inlines, so the array does not escape on the common path).
func collectBuf(stack *[scanStackWords]int64, k int) []int64 {
	if k <= scanStackWords {
		return stack[:k]
	}
	return make([]int64, k)
}

// helpScan is an updater's help obligation, run after its announce while the
// pressure register is raised: a bounded validated double collect whose raw
// words, if two consecutive collects are bit-identical, are deposited in the
// help slot for starving scans to adopt. No closing word-0 read is needed
// here — the ADOPTING scan performs that witness itself against the
// deposit's word 0, which is what anchors the deposited state against
// completions at adoption time. The helper gives up after helperRounds
// invalidated rounds (keeping updates wait-free): whichever update
// invalidated it will read the still-raised pressure register after its own
// announce and inherit the obligation. Deposits are last-writer-wins; a
// stale deposit never corrupts a scan (its word-0 witness fails and the scan
// retries), it only delays adoption.
func (s *FASnapshot) helpScan(t prim.Thread, g *mwGen) {
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	for r := 0; r < helperRounds; r++ {
		if s.roundAnchored(t, g, cur) {
			g.slot.WriteAny(t, &mwDeposit{words: append([]int64(nil), cur...)})
			s.helpDeposits.Add(1)
			return
		}
	}
}

// collectWordsAnchored reads the k words once in ANCHORED order — words
// 1..k-1 first, word 0 LAST — the order every shipped collect uses. Reading
// the announce counter (word 0's sequence field) last is what lets a
// validating round's own word-0 read double as the scan's closing announce
// witness: an update announced before that read either predates the pair's
// earlier read of its word (its payload is in the baseline) or lands inside
// the pair's interval for some word and invalidates the round. The
// word-0-FIRST collect without a separate closing re-read is the negative
// exhibit (scanUnanchoredInto).
func (s *FASnapshot) collectWordsAnchored(t prim.Thread, g *mwGen, words []int64) {
	for j := 1; j < len(g.words); j++ {
		words[j] = g.words[j].FetchAddInt(t, 0)
	}
	words[0] = g.words[0].FetchAddInt(t, 0)
}

// roundAnchored re-reads the k words in anchored order against the baseline
// cur and reports whether all matched (a validated pair whose final word-0
// read is the closing announce witness). Mismatching reads become the next
// round's baseline; after a failed round cur[0] holds the word-0 value read
// last — the caller's most recent shared step, and therefore the witness an
// adoption check may compare a deposit against.
func (s *FASnapshot) roundAnchored(t prim.Thread, g *mwGen, cur []int64) bool {
	valid, _ := s.roundAnchoredCut(t, g, cur, false)
	return valid
}

// roundAnchoredCut is roundAnchored with the rebase-mode cutover check: when
// rebase is set, the round also reads g's pressure register BETWEEN the
// words-1..k-1 reads and the closing word-0 read, reporting whether the
// cutover bit was set. The placement is load-bearing (rebase.go's park
// argument): a pair that validates with the bit CLEAR proves the migrator's
// arm announce either invalidated this pair or postdates its closing word-0
// read — so the install postdates the scan's final shared step and the
// bit-clear return needs no further check. With rebase false the pressure
// read is skipped and the round is the pre-rebase protocol's, step for step.
func (s *FASnapshot) roundAnchoredCut(t prim.Thread, g *mwGen, cur []int64, rebase bool) (valid, cut bool) {
	valid = true
	for j := 1; j < len(g.words); j++ {
		w := g.words[j].FetchAddInt(t, 0)
		if w != cur[j] {
			valid = false
			cur[j] = w
		}
	}
	if rebase {
		cut = g.pressure.FetchAddInt(t, 0)&mwCutoverBit != 0
	}
	w0 := g.words[0].FetchAddInt(t, 0)
	if w0 != cur[0] {
		valid = false
		cur[0] = w0
	}
	return valid, cut
}

// Width returns the current bit length of the shared register (see
// FAMaxRegister.Width): on the multi-word engine, the total occupied lane
// payload bits summed over the k component words (the per-word sequence
// fields are bookkeeping, not component payload, and are not counted). It
// reads the register with fetch&add(0) steps.
func (s *FASnapshot) Width(t prim.Thread) int {
	switch {
	case s.rp != nil:
		return bits.Len64(uint64(s.rp.FetchAddInt(t, 0)))
	case s.eng != nil:
		g := s.eng
		if s.rebaseOn {
			g = s.liveGen(t)
		}
		total := 0
		for _, w := range g.words {
			total += s.mp.PayloadLen(w.FetchAddInt(t, 0))
		}
		return total
	default:
		return s.r.FetchAdd(t, zero).BitLen()
	}
}
