package core

import (
	"fmt"
	"sync/atomic"

	"stronglin/internal/helping"
	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// Live re-base: the multi-word engine's watermark-triggered cutover onto
// fresh words, without stopping traffic. The engine's per-word sequence
// fields are mod-2^16 counters (interleave.SeqBits): every validation in the
// protocol — double-collect pairs and adoption witnesses —
// compares full word values, so a field that wraps while a scan is
// descheduled reopens the classic seqlock ABA window. Rather than widening
// the fields (the packing budget is spent on lanes), the engine ROLLS OVER:
// when the watermark nears the wrap, a migrator re-bases the live state onto
// a fresh generation of zero-sequence words and retires the old one. The
// same machinery retires the shard epoch register's announce budget
// (shard.RolloverEpoch) and, operationally, lets slserve renew an engine's
// lifetime budget under load (internal/migrate drives the policy).
//
// # The cutover protocol
//
// A GENERATION is a complete set of engine cells: the k component words, the
// pressure register, the help slot, and a NEXT
// pointer, initially nil, whose install is the cutover's commit point.
// Clients pin the generation they last used (a process-local pointer — no
// shared step to read it); the migrator works on the LIVE generation, the
// end of the next-pointer chain.
//
// The cutover rides the existing protocol steps — no new fast-path work:
//
//  1. ARM: the migrator sets mwCutoverBit in the generation's pressure
//     register (one XADD), then ANNOUNCES the arm by bumping word 0's
//     sequence field (one XADD of interleave.SeqIncrement). Every
//     value-changing update already polls the pressure register after its
//     announce (the helping obligation), so writers discover the cutover on
//     their next update; the arm announce moves word 0, so every closing
//     witness in flight — collect pair or adoption check — misses and
//     re-examines the world.
//  2. DIVERT: a writer whose poll sees the bit awaits the next generation
//     (a conditional step — sim models it as not-enabled-until-installed)
//     and reconciles its component there (divertUpdate): if the re-based
//     lane already carries its value the update's effect arrived with the
//     migration and it returns; otherwise it re-applies the delta with the
//     standard XADD+announce. Writers therefore land at most one payload
//     XADD and one announce on an armed generation before blocking, which
//     BOUNDS the interference the migrator's final collect must absorb.
//  3. FINAL COLLECT: the migrator runs the standard anchored double collect
//     to validation and deposits the raw words in the generation's help
//     slot. The validating round's word-0 read is the collect's closing
//     announce witness, exactly as for a scan.
//  4. PARK: a scan on an armed generation discovers the cutover IN-ROUND —
//     rebase-mode validation rounds read the pressure register between the
//     words-1..k-1 reads and the closing word-0 read — and, once a round
//     validates with the bit set, parks: it re-reads the help slot and takes
//     ONE fresh word-0 read as its final shared step, adopting the deposit
//     if word 0 still equals the deposit's word 0 (the same closing witness
//     as ordinary adoption), else awaiting the next generation and
//     restarting there. Reading the bit INSIDE the validated pair is what
//     closes the protocol: a pair that validates with the bit CLEAR proves
//     the arm announce — which lands after the bit — either invalidated the
//     pair or postdates its closing word-0 read, so the install (later
//     still) postdates the scan's final shared step and no new-generation
//     completion can precede the scan's return.
//  5. RE-BASE + FLIP: the migrator decodes the deposited view, pre-loads the
//     next generation's words with its payload lanes — sequence fields
//     RESET to zero (interleave.ScatterWords), deltas re-anchored — then
//     ANNOUNCES the flip with a second word-0 sequence bump and installs the
//     next pointer. The flip announce invalidates the deposit's witness, so
//     parked scans that miss it await the install; the install itself is the
//     cutover's announce-as-final-step witness — it is the migrator's last
//     shared step before returning, and nothing it precedes can be observed
//     before it.
//
// Rebase linearizes as a SCAN returning the deposited view: every update
// completed before its return is in the deposit (post-arm completions divert
// and block until install, which is Rebase's last step), and the deposit is
// a true state pinned by the final collect. The package tests model it
// exactly so and decide strong linearizability with the execution-tree game
// checker; rebaseFlipEarly (install before the final validated collect) is
// the lost-update negative control, and scanParkBlindAdoptInto (park
// adoption without the fresh word-0 witness) is the cutover's own
// linearizable-but-not-strongly-linearizable twin.
//
// Old-generation cells are never freed or reused: retired generations keep
// their final deposit (the cutover bit is never cleared, so the
// last-raised-scan slot clearing can never fire there) and stale processes
// self-heal — a parked reader follows next; a stale writer's orphan XADD on
// a retired generation moves its word 0 past the deposit, so no witness can
// resurrect the retired state afterwards.
//
// At most ONE live migrator: concurrent Rebase calls on the same generation
// race benignly on the arm bit (it is idempotent — FetchAdd of an already-set
// bit is detected and not re-applied) but would both collect and install;
// internal/migrate serialises them. A KILLED migrator is recoverable: a
// restarted Rebase sees the armed bit, re-collects, re-deposits, and re-uses
// the successor cells the dead one allocated (successorGen memoizes them —
// base-object names are claimed once per world).
const mwCutoverBit = int64(1) << 62

// mwGen is one generation of multi-word engine cells. words/pressure/slot
// play the same roles in every generation; next is the generation pointer
// (nil until installed; absent entirely when live re-base is off, in which
// case generation 0 is the engine forever and no rebase-mode step exists on
// any path).
type mwGen struct {
	id       int64
	words    []prim.FetchAddInt
	pressure prim.FetchAddInt
	slot     helping.Slot
	next     prim.AnyRegister // nil when live re-base is off
}

// newGen allocates one generation's cells. Generation 0 is named name.R<j>,
// name.help, name.slot (and name.next with re-base on); later generations
// are prefixed name.g<id>.
func (s *FASnapshot) newGen(id int64) *mwGen {
	prefix := s.name
	if id > 0 {
		prefix = fmt.Sprintf("%s.g%d", s.name, id)
	}
	g := &mwGen{id: id, words: make([]prim.FetchAddInt, s.mp.Words())}
	for j := range g.words {
		g.words[j] = s.w.FetchAddInt(fmt.Sprintf("%s.R%d", prefix, j), 0)
	}
	g.pressure = s.w.FetchAddInt(prefix+".help", 0)
	g.slot = helping.NewSlot(s.w, prefix+".slot")
	if s.rebaseOn {
		g.next = s.w.AnyRegister(prefix+".next", (*mwGen)(nil))
	}
	return g
}

// successorGen returns generation g's successor, allocating it on first use.
// The memo is what makes a killed migrator restartable: base-object names are
// claimed once per world, so the restarted Rebase must REUSE the cells the
// dead one allocated (including any partial pre-load, which the read-and-
// correct pre-load step repairs).
func (s *FASnapshot) successorGen(g *mwGen) *mwGen {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	if ng, ok := s.nextGens[g.id]; ok {
		return ng
	}
	if s.nextGens == nil {
		s.nextGens = make(map[int64]*mwGen)
	}
	ng := s.newGen(g.id + 1)
	s.nextGens[g.id] = ng
	return ng
}

// engineFor returns the generation process t last used (process-local — no
// shared step), falling back to the live generation for threads outside the
// component range.
func (s *FASnapshot) engineFor(t prim.Thread) *mwGen {
	if s.curGen != nil {
		if id := t.ID(); id >= 0 && id < len(s.curGen) {
			return s.curGen[id]
		}
		return s.liveGen(t)
	}
	return s.eng
}

// setGen records that process t now operates on g.
func (s *FASnapshot) setGen(t prim.Thread, g *mwGen) {
	if s.curGen != nil {
		if id := t.ID(); id >= 0 && id < len(s.curGen) {
			s.curGen[id] = g
		}
	}
}

// liveGen walks the installed next pointers to the end of the chain: the
// generation a fresh operation should use. Read-only (reads of installed
// pointers), so it is safe from scrape/monitoring threads that must never
// touch the per-process generation pins.
func (s *FASnapshot) liveGen(t prim.Thread) *mwGen {
	g := s.eng
	for s.rebaseOn {
		ng, ok := g.next.ReadAny(t).(*mwGen)
		if !ok || ng == nil {
			break
		}
		g = ng
	}
	return g
}

// awaitNext blocks until g's successor is installed and returns it. In the
// simulated world this is a conditional step — the process is simply not
// schedulable until the install lands (and an execution whose migrator was
// killed first ends incomplete, the deadlock recorded); in the real world it
// spins with a yield.
func (s *FASnapshot) awaitNext(t prim.Thread, g *mwGen) *mwGen {
	v := prim.AwaitAny(s.w, t, g.next, func(v any) bool {
		ng, ok := v.(*mwGen)
		return ok && ng != nil
	})
	return v.(*mwGen)
}

// WithLiveRebase enables watermark-triggered live re-base on the multi-word
// engine (default disabled): Rebase rolls the live state onto a fresh
// generation of zero-sequence words while updates and scans continue,
// renewing the mod-2^16 sequence budget (see mwCutoverBit). With re-base off
// no generation pointer exists and no operation performs a rebase-mode step.
// Enabling it adds exactly one pressure-register read per scan validation
// round (the in-round cutover check) and nothing to updates, whose pressure
// poll already existed. No-op on the single-register engines, whose
// substrates have no sequence fields to exhaust.
func WithLiveRebase(enabled bool) SnapshotOption {
	return func(s *FASnapshot) { s.rebaseOn = enabled }
}

// RebaseEnabled reports whether live re-base is on (multi-word engine only).
func (s *FASnapshot) RebaseEnabled() bool { return s.eng != nil && s.rebaseOn }

// Generation returns the live generation's id: the number of completed
// cutovers. 0 on the single-register engines and with re-base off. It reads
// the installed next pointers only, so it is scrape-safe.
func (s *FASnapshot) Generation(t prim.Thread) int64 {
	if s.eng == nil || !s.rebaseOn {
		return 0
	}
	return s.liveGen(t).id
}

// CutoverInFlight reports whether the live generation is armed: a Rebase has
// set the cutover bit but not yet installed the successor. Scrape-safe.
func (s *FASnapshot) CutoverInFlight(t prim.Thread) bool {
	if s.eng == nil || !s.rebaseOn {
		return false
	}
	return s.liveGen(t).pressure.FetchAddInt(t, 0)&mwCutoverBit != 0
}

// RebaseStats reports the live re-base telemetry: completed cutovers, scans
// that parked and adopted the migrator's final deposit, scans that parked and
// awaited the install, and updates diverted onto a successor generation. All
// zero with re-base off. Slow-path events only, like HelpStats.
func (s *FASnapshot) RebaseStats() RebaseStats {
	return RebaseStats{
		Generations: s.generations.Load(),
		ParkAdopts:  s.parkAdopts.Load(),
		ParkWaits:   s.parkWaits.Load(),
		Diverts:     s.diverts.Load(),
	}
}

// RebaseStats is the snapshot of FASnapshot.RebaseStats.
type RebaseStats struct {
	Generations int64 `json:"generations"`
	ParkAdopts  int64 `json:"park_adopts"`
	ParkWaits   int64 `json:"park_waits"`
	Diverts     int64 `json:"diverts"`
}

// rebaseCounters groups the atomic telemetry rebase adds to FASnapshot.
type rebaseCounters struct {
	generations atomic.Int64
	parkAdopts  atomic.Int64
	parkWaits   atomic.Int64
	diverts     atomic.Int64
}

// Rebase performs one live cutover of the live generation and returns the
// new generation's id: arm + arm announce, final validated collect deposited
// in the help slot, successor pre-load (payload lanes carried over, sequence
// fields reset), flip announce, install (see the protocol walkthrough at
// mwCutoverBit). It linearizes as a Scan returning the deposited view —
// callers that participate in checked histories model it exactly so.
//
// At most one Rebase may run at a time (internal/migrate serialises); a
// killed migrator's cutover is completed by simply calling Rebase again.
// Panics unless the engine is multi-word with live re-base enabled.
func (s *FASnapshot) Rebase(t prim.Thread) int64 {
	view := make([]int64, s.n)
	s.rebaseInto(t, view)
	return s.liveGen(t).id
}

// RebaseView is Rebase also returning the final validated view it deposited
// — the response the operation linearizes with (a scan's view), which is what
// the model-check harnesses record.
func (s *FASnapshot) RebaseView(t prim.Thread) []int64 {
	view := make([]int64, s.n)
	s.rebaseInto(t, view)
	return view
}

func (s *FASnapshot) rebaseInto(t prim.Thread, view []int64) {
	if s.eng == nil || !s.rebaseOn {
		panic("core: FASnapshot.Rebase requires the multi-word engine with WithLiveRebase")
	}
	g := s.liveGen(t)
	if g.pressure.FetchAddInt(t, 0)&mwCutoverBit == 0 {
		g.pressure.FetchAddInt(t, mwCutoverBit) // ARM: divert new updates
		// Arm announce: move word 0 so every closing witness in flight —
		// collect pair or adoption check — misses and re-reads the pressure
		// register. Stale pre-arm help deposits are thereby
		// unadoptable from here on.
		g.words[0].FetchAddInt(t, interleave.SeqIncrement)
	}
	// Final validated collect. Interference is bounded: every value-changing
	// update that polls after the arm diverts, landing at most one payload
	// XADD and one announce here first, so the collect terminates once the
	// armed writers have blocked.
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	for !s.roundAnchored(t, g, cur) {
	}
	g.slot.Write(t, &helping.Deposit{Witness: cur[0], Words: append([]int64(nil), cur...)})

	// Pre-load the successor: payload lanes carried over, sequence fields
	// reset. Read-and-correct (rather than blind add) repairs a dead
	// predecessor's partial pre-load; the successor is unobservable until the
	// install below, so these XADDs are invisible to the protocol.
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	ng := s.successorGen(g)
	base := make([]int64, len(g.words))
	s.mp.ScatterWords(view, base)
	for j := range ng.words {
		raw := ng.words[j].FetchAddInt(t, 0)
		if d := base[j] - raw; d != 0 {
			ng.words[j].FetchAddInt(t, d)
		}
	}

	// Flip announce: invalidate the deposit's witness, so scans that park
	// from here on await the install instead of adopting.
	g.words[0].FetchAddInt(t, interleave.SeqIncrement)
	// INSTALL: the cutover's commit point and this operation's final shared
	// step — the announce-as-final-step witness. Diverted writers and parked
	// readers unblock; new-generation completions all postdate this.
	g.next.WriteAny(t, ng)
	s.generations.Add(1)
}

// park ends a scan round that validated with the cutover bit set (step 4 of
// the protocol above): on a fresh word-0 match the migrator's deposit
// replaces cur, else park awaits the install and returns the successor. One
// attempt only: an unbounded adopt retry here could spin forever against the
// migrator's own announces.
func (s *FASnapshot) park(t prim.Thread, g *mwGen, cur []int64) *mwGen {
	if d := g.slot.Read(t); d != nil && g.words[0].FetchAddInt(t, 0) == d.Witness {
		copy(cur, d.Words)
		s.parkAdopts.Add(1)
		return nil
	}
	s.parkWaits.Add(1)
	return s.awaitNext(t, g)
}

// divertUpdate reconciles process i's update v onto the successor once its
// pressure poll saw the cutover bit: await the install, then re-read the
// re-based lane — if it already carries v the update's effect arrived with
// the migration (its payload was in the final collect) and nothing need
// announce; otherwise re-apply with the standard XADD + announce. The loop
// handles a cutover of the successor itself arriving mid-divert (and a
// writer waking several generations behind walks them one by one, each step
// an install that already happened, so the walk is bounded by the completed
// cutovers).
func (s *FASnapshot) divertUpdate(t prim.Thread, g *mwGen, i int, v int64) {
	for {
		ng := s.awaitNext(t, g)
		s.setGen(t, ng)
		s.diverts.Add(1)
		w := s.mp.WordOf(i)
		cur := s.mp.Lane(ng.words[w].FetchAddInt(t, 0), i)
		s.prev[i] = cur
		if cur == v {
			return
		}
		ng.words[w].FetchAddInt(t, s.mp.FieldDelta(cur, v, i))
		s.prev[i] = v
		if w != 0 {
			ng.words[0].FetchAddInt(t, interleave.SeqIncrement)
		}
		p := ng.pressure.FetchAddInt(t, 0)
		if p == 0 {
			return
		}
		if p&mwCutoverBit == 0 {
			s.helpScan(t, ng)
			return
		}
		g = ng
	}
}
