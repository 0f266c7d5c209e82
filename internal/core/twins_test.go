package core

// The negative twins of the multi-word snapshot: protocol variants with one
// load-bearing step removed, which the package tests drive to pin the model
// checkers refuting them.

import (
	"fmt"

	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// collectWords reads the k words once, in index order (word 0 FIRST): the
// unanchored collect of the negative exhibits. Decoded on its own it is the
// coarsest one: updates to different words can be observed inconsistently
// with their real-time order, so scanNaiveInto (a lone collect with no
// second, validating one) is not linearizable; the package tests pin the
// counterexample.
func (s *FASnapshot) collectWords(t prim.Thread, g *mwGen, words []int64) {
	for j := range g.words {
		words[j] = g.words[j].FetchAddInt(t, 0)
	}
}

// scanUnanchoredInto is the UNANCHORED double collect — word 0 read FIRST
// in every round instead of last, so the scan's final step does not witness
// the announce counter — kept exclusively for the negative model check: two
// consecutive identical collects still pin a true state, so it is
// linearizable — but the pinned instant may lie in the past of an update
// that has already completed (announced after the pair's early word-0 read,
// before the scan's later reads of the other words), and with a second
// writer threatening the other word no eager linearization of the pending
// scan survives every future, so it is NOT strongly linearizable (the
// package tests pin the game checker finding exactly that). It is the
// reason the shipped rounds read word 0 last: the announce witness must be
// the scan's final shared step.
func (s *FASnapshot) scanUnanchoredInto(t prim.Thread, view []int64) []int64 {
	if len(view) != s.n {
		panic(fmt.Sprintf("core: FASnapshot.scanUnanchoredInto: view has length %d, want %d", len(view), s.n))
	}
	g := s.eng
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWords(t, g, cur)
	for {
		valid := true
		for j := range g.words {
			w := g.words[j].FetchAddInt(t, 0)
			if w != cur[j] {
				valid = false
				cur[j] = w
			}
		}
		if valid {
			break
		}
	}
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	return view
}

// scanSpinInto is the PR 4 lock-free scan — the shipped protocol WITHOUT the
// pressure/adopt machinery — kept exclusively for the progress witness and
// the bench baseline: under the single-updater storm schedule its retry
// count (and so the scanner's own steps) grows without bound, which is
// exactly the starvation the helping path closes. Its returned views carry
// the full double-collect + closing-check guarantee; only progress differs.
func (s *FASnapshot) scanSpinInto(t prim.Thread, view []int64) []int64 {
	if len(view) != s.n {
		panic(fmt.Sprintf("core: FASnapshot.scanSpinInto: view has length %d, want %d", len(view), s.n))
	}
	g := s.eng
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	for !s.roundAnchored(t, g, cur) {
	}
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	return view
}

// scanAdoptUnanchoredInto is the helping path WITHOUT the closing word-0
// witness on adoption, kept exclusively for the negative model check: it
// raises pressure immediately and returns the first helper deposit it sees
// AS IS. The deposit is a true state (the helper's double collect pins it),
// so crafted executions stay linearizable — but the pinned instant may lie
// in the past of an update that announced after the helper validated and
// RETURNED before the scan does, and with a second deposit still possible
// the scan's eventual view hangs on scheduling: no eager linearization of
// the pending scan survives every future. The package tests pin the game
// checker refuting strong linearizability on a schedule tree, documenting
// that HELPING DOES NOT EXEMPT the announce-as-final-step rule — an adopted
// view needs the same closing witness a self-collected one does. Falls back
// to validated own rounds while no deposit exists so crafted schedules can
// still complete.
func (s *FASnapshot) scanAdoptUnanchoredInto(t prim.Thread, view []int64) []int64 {
	if len(view) != s.n {
		panic(fmt.Sprintf("core: FASnapshot.scanAdoptUnanchoredInto: view has length %d, want %d", len(view), s.n))
	}
	g := s.eng
	g.pressure.FetchAddInt(t, 1)
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	for {
		if d, ok := g.slot.ReadAny(t).(*mwDeposit); ok && len(d.words) == len(g.words) {
			copy(cur, d.words) // adopt with NO closing word-0 witness: the bug
			break
		}
		if s.roundAnchored(t, g, cur) {
			break
		}
	}
	g.pressure.FetchAddInt(t, -1)
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	return view
}

// scanNaiveInto is the unvalidated multi-word collect, kept exclusively for
// the negative model check (like shard's readSingleCollect).
func (s *FASnapshot) scanNaiveInto(t prim.Thread, view []int64) []int64 {
	if len(view) != s.n {
		panic(fmt.Sprintf("core: FASnapshot.scanNaiveInto: view has length %d, want %d", len(view), s.n))
	}
	g := s.eng
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWords(t, g, cur)
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	return view
}

// rebaseFlipEarly is the flip-before-the-final-validated-collect twin: the
// successor is seeded from a collect taken BEFORE the arm and installed
// immediately — no post-arm collect, no validation, no deposit — kept
// exclusively for the negative fault proof. The ordering inverts the shipped
// protocol's one load-bearing dependency: arm-then-collect means every update
// is either complete before the collect's closing witness (and in the seed)
// or diverted onto the successor (and re-applied); collect-then-arm opens a
// window in which an update lands its payload AND completes — its pressure
// poll still sees no bit — after the seed was read, so its value is in
// neither the successor's base nor any diverted re-apply: a LOST UPDATE,
// observable by any new-generation scan, which is not even linearizable (the
// package tests pin CheckLinearizable rejecting the crafted execution — the
// no-lost-updates negative control for the fault harness).
func (s *FASnapshot) rebaseFlipEarly(t prim.Thread) {
	if s.eng == nil || !s.rebaseOn {
		panic("core: rebaseFlipEarly requires the multi-word engine with WithLiveRebase")
	}
	g := s.liveGen(t)
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWords(t, g, cur) // premature pre-arm seed: the bug
	if g.pressure.FetchAddInt(t, 0)&mwCutoverBit == 0 {
		g.pressure.FetchAddInt(t, mwCutoverBit)
		g.words[0].FetchAddInt(t, interleave.SeqIncrement)
	}
	view := make([]int64, s.n)
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
	g.next.WriteAny(t, ng) // install seeded from the stale pre-arm state
	s.generations.Add(1)
}

// scanParkBlindAdoptInto is the rebase-mode scan with the park path's fresh
// word-0 witness REMOVED — a parked scan adopts whatever the help slot holds
// as soon as a round validates with the cutover bit set — kept exclusively
// for the negative model check. The adopted deposit is a true state (some
// validated collect pinned it), so crafted executions stay linearizable; but
// the deposit may predate an update that COMPLETED before the park (its
// announce is exactly what the skipped witness would have caught), and with
// the migrator still mid-cutover the scan's eventual view hangs on
// scheduling: no prefix-closed linearization survives every future. The
// package tests pin the game checker refuting strong linearizability on a
// schedule tree, documenting that the CUTOVER does not exempt the
// announce-as-final-step rule — a park adoption needs the same closing
// witness every other return path carries. The twin raises the pressure
// register for its whole duration (an eager raised scan) so helper deposits
// exist for it to adopt; lowering on an armed generation can never clear the
// slot (the bit keeps the register nonzero), matching the shipped invariant.
func (s *FASnapshot) scanParkBlindAdoptInto(t prim.Thread, view []int64) []int64 {
	if len(view) != s.n {
		panic(fmt.Sprintf("core: scanParkBlindAdoptInto: view has length %d, want %d", len(view), s.n))
	}
	g := s.engineFor(t)
	g.pressure.FetchAddInt(t, 1)
	var stack [scanStackWords]int64
	cur := collectBuf(&stack, len(g.words))
	s.collectWordsAnchored(t, g, cur)
	for {
		valid, cut := s.roundAnchoredCut(t, g, cur, true)
		if !valid {
			continue
		}
		if !cut {
			break
		}
		if d, ok := g.slot.ReadAny(t).(*mwDeposit); ok && len(d.words) == len(g.words) {
			copy(cur, d.words) // park adoption with NO fresh word-0 witness: the bug
			break
		}
		break // armed but no deposit yet: return the own validated pair
	}
	g.pressure.FetchAddInt(t, -1)
	for j, w := range cur {
		s.mp.GatherWord(w, j, view)
	}
	return view
}
