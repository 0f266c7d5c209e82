package core

import (
	"fmt"
	"math/bits"
	"sync"

	"stronglin/internal/helping"
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
//     point. Scan is a DOUBLE COLLECT with an ANCHORED word order, word 0
//     read LAST, so the validating round's own word-0 read is the scan's
//     closing announce check (ScanInto gives the argument).
//
//     Scans that keep failing are HELPED by updates (internal/helping holds
//     the protocol and its argument). The engine's layout of it: pressure is
//     a separate register that every value-changing update polls after
//     announcing; a helper deposits the raw words of a validated double
//     collect keyed by its word 0, and a raised scan adopts that deposit only
//     when its own round's closing word-0 read equals the key (the negative
//     twin in the package tests pins that skipping this witness is
//     linearizable but NOT strongly linearizable).
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
	// helper deposit. With live re-base on (WithLiveRebase) eng is merely the
	// FIRST generation: Rebase rolls the state onto successors chained through
	// the generation next pointers (see rebase.go), and curGen[i] pins the
	// generation process i last used (only process i accesses it; nil when
	// re-base is off, in which case eng is the engine forever). spinBudget is
	// the retry budget (WithScanRetryBudget).
	eng        *mwGen
	curGen     []*mwGen
	rebaseOn   bool
	genMu      sync.Mutex
	nextGens   map[int64]*mwGen
	spinBudget int

	// help runs the helped scans and deposits and keeps their telemetry.
	help *helping.Helper

	// rebaseCounters adds the live re-base telemetry (rebase.go), same
	// slow-path-only discipline: cutovers, parks and diverts are rare by
	// construction.
	rebaseCounters

	// met is the optional scrape-layer instrumentation (WithSnapshotObs);
	// nil fields are no-ops, observed on contended completions only.
	met obs.SnapMetrics
}

var _ SnapshotAPI = (*FASnapshot)(nil)

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
// deposits (default helping.DefaultBudget). A budget of 0 requests help after
// the first failed round, which the adopt-path model checks and fuzzers use.
// The budget affects progress only, never the returned views. No-op on the
// single-register engines, whose scans are one fetch&add.
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
		spinBudget: helping.DefaultBudget,
		prev:       make([]int64, n),
	}
	for _, o := range opts {
		o(s)
	}
	s.help = helping.NewHelper(s.spinBudget, s.met.ScanRounds)
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

// HelpStats reports the multi-word scans' helping telemetry (see
// helping.Helper.Stats). All fields are 0 on the single-register engines,
// whose one-step scans never retry. Safe to call from any goroutine.
func (s *FASnapshot) HelpStats() obs.HelpStats { return s.help.Stats() }

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
// while any scan is past its retry budget, owes help (helpScan). All the
// help steps trail the update's linearization point and touch neither its
// response nor its component, so the update's own argument is unchanged; the
// helper bound keeps updates wait-free (payload + announce + pressure read +
// at most 2k collect reads + one deposit).
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
// Scans that exhaust their retry budget (WithScanRetryBudget) are helped
// by updates and may adopt a deposited view under the same word-0 witness
// (internal/helping; the type comment gives this engine's layout).
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
		// once on generation 0.
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

// scanCollectGen is the multi-word scan on generation g: an anchored baseline
// collect, then anchored re-reads ending in the word-0 witness, which
// helping.Helper.Retry continues once the first fails. It returns nil after
// writing the view, or the installed successor generation when a cutover
// parked the scan (the caller restarts there).
func (s *FASnapshot) scanCollectGen(t prim.Thread, g *mwGen, view []int64) *mwGen {
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	var next *mwGen
	witness := func() (int64, bool) {
		valid, cut := s.roundAnchoredCut(t, g, cur, s.rebaseOn)
		if valid && cut {
			next = s.park(t, g, cur)
		}
		return cur[0], valid // a failed round leaves its last word-0 read in cur[0]
	}
	s.collectWordsAnchored(t, g, cur)
	var d *helping.Deposit
	if _, ok := witness(); !ok {
		d = s.help.Retry(t, g.slot, func() bool { return false }, witness,
			func() { g.pressure.FetchAddInt(t, 1) },
			// On an ARMED generation the last-lowerer clear never fires: the
			// cutover bit stays set in the same register, so the previous
			// value is never 1 and the migrator's final deposit outlives
			// every pressure episode, which is what parked scans adopt.
			func() bool { return g.pressure.FetchAddInt(t, -1) == 1 })
	}
	if next != nil {
		return next // parked across the cutover: restart on the successor
	}
	if d != nil {
		copy(cur, d.Words)
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

// helpScan is an update's help obligation: an anchored baseline collect,
// then a validated re-read whose raw words are the deposit, keyed by the
// pair's closing word-0 read. The adopting scan performs the witness against
// that key itself, which anchors the deposited state at adoption time.
func (s *FASnapshot) helpScan(t prim.Thread, g *mwGen) {
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	s.help.Help(t, g.slot, func() *helping.Deposit {
		if !s.roundAnchored(t, g, cur) {
			return nil
		}
		return &helping.Deposit{Witness: cur[0], Words: append([]int64(nil), cur...)}
	})
}

// collectWordsAnchored reads the k words once in ANCHORED order — words
// 1..k-1 first, word 0 LAST — the order every shipped collect uses, so that
// a validating round's own word-0 read is the scan's closing announce
// witness (see ScanInto).
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
// read is skipped.
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
