package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// The multi-word snapshot's HELPING path (internal/helping): a scan past its retry
// budget raises the pressure register; value-changing updates poll it after
// announcing and deposit validated collects in the help slot; a starving
// scan adopts the freshest deposit, with the round's own closing word-0
// read — performed AFTER the slot read — witnessing that no update
// announced since the helper validated. This file verifies the helped path
// the package's usual three ways: an exhaustive strong-linearizability
// model check on a bounded configuration where the checker provably reaches
// deposits AND adoptions on explored branches, a crafted-schedule
// deterministic adoption race on the cross-word shape, and randomized
// real-concurrency stress (2 updaters x 2 scanners, budget 0, pairwise
// comparable views) — plus the negative twin: adopting WITHOUT the closing
// word-0 witness is linearizable but NOT strongly linearizable, pinned by
// sim.TreeFromSchedules + history.CheckStrongLin on the 3-proc cross-word
// configuration. Helping does not exempt the announce-as-final-step rule.
// The wait-freedom progress witnesses live in progress_test.go.

// TestMultiwordHelpedScanStrongLin is the exhaustive helped-path check:
// budget 0 (pressure raised after the first failed round) against a word-1
// updater, the minimal shape where adoption is reachable — the update's
// payload lands on word 1 with its announce still pending, so a round can
// fail while word 0 still matches a helper's deposit. The op wrappers tally
// the engine's helping telemetry across the exploration's stateless
// replays: the tree this verdict covers must actually contain deposit and
// adoption branches, otherwise the test is vacuous and fails.
func TestMultiwordHelpedScanStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	var deposits, adopts atomic.Int64
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(mwBound2), WithScanRetryBudget(0))
		if s.Words() != 2 {
			t.Fatalf("words = %d, want 2", s.Words())
		}
		tally := func(op sim.Op) sim.Op {
			run := op.Run
			op.Run = func(th prim.Thread) string {
				resp := run(th)
				hs := s.HelpStats()
				deposits.Add(hs.Deposits)
				adopts.Add(hs.Adopts)
				return resp
			}
			return op
		}
		return []sim.Program{
			{tally(opScan(s))},
			{tally(opUpdate(s, 1, 1))}, // lane 1: word 1, separate announce
		}
	}
	v := verifySL(t, 2, setup, spec.Snapshot{})
	pinTree(t, v, 325804, 86191)
	if deposits.Load() == 0 || adopts.Load() == 0 {
		t.Fatalf("exploration reached deposits=%d adopts=%d; the helped-path verdict must cover both", deposits.Load(), adopts.Load())
	}
	t.Logf("helping reached across replays: deposits=%d adopts=%d", deposits.Load(), adopts.Load())
}

// TestMultiwordHelpedAdoptCraftedRace drives the SHIPPED engine through a
// deterministic adoption on the 3-proc cross-word shape the exhaustive
// envelope cannot hold with helping enabled: the scan exhausts a zero
// budget, the word-1 updater deposits a validated view, a second payload
// lands unannounced to fail the scan's next round while word 0 still
// matches the deposit — the scan must adopt, the recorded history must be
// linearizable, and the adopted view must carry the deposit's state.
func TestMultiwordHelpedAdoptCraftedRace(t *testing.T) {
	var adopted int64
	var view []int64
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(mwBound24), WithScanRetryBudget(0)) // lanes 0,1 word 0; lane 2 word 1
		scan := sim.Op{
			Name: "scan()",
			Spec: spec.MkOp(spec.MethodScan),
			Run: func(th prim.Thread) string {
				view = s.Scan(th)
				adopted = s.HelpStats().Adopts
				return spec.RespVec(view)
			},
		}
		return []sim.Program{
			{opUpdate(s, 0, 1)}, // word 0 (kept out of the window: runs last)
			{scan},
			{opUpdate(s, 2, 2), opUpdate(s, 2, 3)}, // word 1: deposit, then fail the round
		}
	}
	// Window: scan collects; upd2a's payload invalidates round 0 -> raise;
	// upd2a announces, polls pressure, helps, deposits; upd2b's payload
	// fails the scan's next round with word 0 untouched -> adopt.
	window := []int{
		1, 1, 1, // scan: invoke, initial collect (w1, w0)
		2, 2, // upd2a: invoke, payload w1
		1, 1, // scan round 0: w1 (differs), w0 -> fail -> raise pressure
		1,    // scan: raise step
		2, 2, // upd2a: announce w0, pressure poll (1)
		2, 2, 2, 2, // upd2a help: initial w1, w0; round w1, w0 -> valid
		2,    // upd2a: deposit
		2, 2, // upd2b: invoke, payload w1 (unannounced!)
		1,    // scan: slot read (deposit)
		1, 1, // scan round: w1 (differs -> fail), w0 (== deposit w0) -> ADOPT
		1,       // scan: lower pressure -> returns adopted view
		2, 2, 0, // upd2b announce + poll; upd0 runs after
	}
	policy := func(v sim.PolicyView) int {
		if v.Step < len(window) {
			p := window[v.Step]
			for _, e := range v.Enabled {
				if e == p {
					return p
				}
			}
		}
		return v.Enabled[0]
	}
	exec, err := sim.RunToCompletion(3, setup, policy, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Complete {
		t.Fatalf("crafted adoption did not complete (schedule %v)", exec.Schedule)
	}
	h := history.FromEvents(3, exec.Ops, exec.Events)
	if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
		t.Fatalf("crafted adoption history not linearizable: %s", h.String())
	}
	if adopted == 0 {
		t.Fatalf("crafted schedule did not reach the adopt path (schedule %v, history %s)", exec.Schedule, h.String())
	}
	if want := []int64{0, 0, 2}; !reflect.DeepEqual(view, want) {
		t.Fatalf("adopted view = %v, want %v (the helper's validated state)", view, want)
	}
	t.Logf("adopted view %v, history: %s", view, h.String())
}

// TestMultiwordAdoptUnanchoredNotStrongLin pins the negative twin of the
// helping path, mirroring scanUnanchoredInto's lesson: a scan that adopts a
// deposited view WITHOUT re-witnessing word 0 as its final step
// (scanAdoptUnanchoredInto) returns a true state — the helper's validated
// pair pins one — so crafted executions stay linearizable; but the pinned
// instant can lie in the past of an update that already completed, and with
// the word-1 updater's second operation still in flight the scan's eventual
// view hangs on scheduling. The schedule tree below contains exactly that
// commitment point: the word-0 update completes after the helper deposited
// (its own help attempt is invalidated into giving up, so the stale deposit
// survives), and the two futures diverge — adopt the stale deposit now
// (view without the completed update) or after the second updater
// re-deposits (view with it). No prefix-closed linearization survives both:
// sim.TreeFromSchedules + history.CheckStrongLin refute strong
// linearizability, soundly (a pruned tree only removes futures). Helping
// does NOT exempt the announce-as-final-step rule — an adopted view needs
// the same closing witness a self-collected one does.
func TestMultiwordAdoptUnanchoredNotStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(mwBound24))
		twin := sim.Op{
			Name: "scan-adopt-unanchored()",
			Spec: spec.MkOp(spec.MethodScan),
			Run: func(th prim.Thread) string {
				return spec.RespVec(s.scanAdoptUnanchoredInto(th, make([]int64, 3)))
			},
		}
		return []sim.Program{
			{opUpdate(s, 0, 1)}, // word 0: completes while the stale deposit survives
			{twin},
			{opUpdate(s, 2, 2), opUpdate(s, 2, 3)}, // word 1: depositor, then the in-flight threat
		}
	}
	// Shared prefix: the twin raises pressure and collects; upd2a deposits a
	// validated [0 0 2]; upd0's payload lands (staling the deposit) and
	// upd2b's payload invalidates upd0's single help attempt, so upd0 gives
	// up and RETURNS with the stale deposit still in the slot.
	prefix := []int{
		1, 1, 1, 1, // twin: invoke, raise, initial collect (w1, w0)
		2, 2, 2, 2, // upd2a: invoke, payload w1, announce w0, pressure poll (1)
		2, 2, 2, 2, // upd2a help: initial w1, w0; round w1, w0 -> valid
		2,          // upd2a: deposit [0 0 2] -> returns
		2,          // upd2b: invoke
		0, 0, 0, 0, // upd0: invoke, payload w0 (stales the deposit), pressure poll (1), help initial w1
		2,       // upd2b: payload w1 (invalidates upd0's help baseline)
		0, 0, 0, // upd0 help: initial w0; round w1 (differs), round w0 -> single attempt spent -> upd0 RETURNS
	}
	// Future A: the twin adopts the STALE deposit right away (view [0 0 2],
	// missing completed upd0), then upd2b finishes (without helping: the
	// twin has already lowered pressure when upd2b polls).
	futureA := []int{1, 1, 2, 2}
	// Future B: upd2b finishes first — its help re-deposits a fresh view —
	// and the twin adopts THAT (view [1 0 3]).
	futureB := []int{2, 2, 2, 2, 2, 2, 2, 1, 1}

	// Replay each crafted schedule (trailing grants past completion are
	// dropped), check the complete history, and pin the two views whose
	// divergence carries the refutation.
	futures := []struct {
		name, wantScan string
		sched          []int
	}{
		{"A", spec.RespVec([]int64{0, 0, 2}), append(append([]int{}, prefix...), futureA...)},
		{"B", spec.RespVec([]int64{1, 0, 3}), append(append([]int{}, prefix...), futureB...)},
	}
	var schedules [][]int
	for _, f := range futures {
		exec, err := sim.Run(3, setup, f.sched)
		if err != nil {
			t.Fatalf("schedule %s: %v", f.name, err)
		}
		if !exec.Complete {
			t.Fatalf("schedule %s incomplete: %v (enabled at end: %v)", f.name, exec.Schedule, exec.Enabled[len(exec.Enabled)-1])
		}
		if got := exec.Responses()[1]; got != f.wantScan {
			t.Fatalf("schedule %s: twin scan returned %s, want %s", f.name, got, f.wantScan)
		}
		h := history.FromEvents(3, exec.Ops, exec.Events)
		if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
			t.Fatalf("schedule %s must stay linearizable (adopted views are true states): %s", f.name, h.String())
		}
		schedules = append(schedules, append([]int{}, exec.Schedule...))
	}

	tree, err := sim.TreeFromSchedules(3, setup, schedules)
	if err != nil {
		t.Fatal(err)
	}
	res := history.CheckStrongLin(tree, spec.Snapshot{}, nil)
	if res.Ok {
		t.Fatal("the witness-free adopt must NOT be strongly linearizable on the branching futures")
	}
	t.Logf("witness-free adopt commitment counterexample: %v", res.Counterexample)
}

// TestMultiwordHelpedConcurrentScansComparable is the helped-path form of
// the 4-proc comparability stress: 2 updaters storm different words while 2
// budget-0 scanners collect — every scan that cannot validate raises
// pressure immediately, so the updaters keep depositing and scans keep
// adopting. All views, adopted or self-collected, must remain pairwise
// comparable (each lane's history is strictly increasing).
func TestMultiwordHelpedConcurrentScansComparable(t *testing.T) {
	w := prim.NewRealWorld()
	const lanes = 4
	s := NewFASnapshot(w, "snap", lanes, WithSnapshotBound(mwBound2), WithScanRetryBudget(0)) // 1 lane/word x 4 words
	if !s.Multiword() {
		t.Fatal("config must stripe")
	}
	const scanners, perScanner = 2, 400
	var stop atomic.Bool
	var updWG, scanWG sync.WaitGroup
	for p := 0; p < 2; p++ {
		updWG.Add(1)
		go func(p int) {
			defer updWG.Done()
			th := prim.RealThread(p)
			for v := int64(1); !stop.Load(); v++ {
				s.Update(th, v)
			}
		}(p)
	}
	views := make([][][]int64, scanners)
	for sc := 0; sc < scanners; sc++ {
		scanWG.Add(1)
		go func(sc int) {
			defer scanWG.Done()
			th := prim.RealThread(2 + sc)
			for i := 0; i < perScanner; i++ {
				views[sc] = append(views[sc], s.Scan(th))
			}
		}(sc)
	}
	scanWG.Wait()
	stop.Store(true)
	updWG.Wait()
	var all [][]int64
	for sc := range views {
		all = append(all, views[sc]...)
	}
	comparable := func(a, b []int64) bool {
		le, ge := true, true
		for i := range a {
			le = le && a[i] <= b[i]
			ge = ge && a[i] >= b[i]
		}
		return le || ge
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if !comparable(all[i], all[j]) {
				t.Fatalf("incomparable views: %v vs %v", all[i], all[j])
			}
		}
	}
	hs := s.HelpStats()
	t.Logf("helping under stress: %d deposits, %d adopted scans (of %d), %d retries, %d raises, %d adopt misses",
		hs.Deposits, hs.Adopts, scanners*perScanner, hs.Retries, hs.Raises, hs.AdoptMisses)
}

// TestMultiwordHelpedOpsAllocFree pins the scan side of the 0 allocs/op
// contract with helping compiled in: ScanInto's own path (stack collect
// buffer, gather into the caller's view) and Update's pressure poll
// allocate nothing. The adopt branch itself only copies the deposit into
// the same stack buffer; the single allocation in the helping machinery is
// the HELPER's deposit (an update-path cost, paid only while a scan is
// starving), which the progress witness and the contended bench exercise.
func TestMultiwordHelpedOpsAllocFree(t *testing.T) {
	w := prim.NewRealWorld()
	const lanes = 8
	s := NewFASnapshot(w, "snap", lanes, WithSnapshotBound(1<<15-1), WithScanRetryBudget(0))
	if !s.Multiword() {
		t.Fatal("config must stripe")
	}
	th := prim.RealThread(0)
	var v int64
	if allocs := testing.AllocsPerRun(200, func() { v++; s.Update(th, v%100) }); allocs != 0 {
		t.Fatalf("helped-engine Update allocates %.1f per op, want 0", allocs)
	}
	view := make([]int64, lanes)
	if allocs := testing.AllocsPerRun(200, func() { s.ScanInto(th, view) }); allocs != 0 {
		t.Fatalf("helped-engine ScanInto allocates %.1f per op, want 0", allocs)
	}
}

// FuzzMultiwordHelpedVsWideSnapshot diff-fuzzes the budget-0 helped engine
// against the wide register as oracle, exactly like the lock-free engine's
// fuzz: same updates applied to both, every scan must agree. (Sequential
// runs keep every round validating, so this pins the helped engine's
// decode/update equivalence; the adopt path's values are pinned by the
// crafted race and the sim checks above, and cross-checked against the
// sequential spec under real concurrency by the multiword-help row of the
// root package's TestStressLinearizable.)
func FuzzMultiwordHelpedVsWideSnapshot(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{250, 125, 60, 30, 15, 7, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lanes, bound = 8, 255
		w := sim.NewSoloWorld()
		helped := NewFASnapshot(w, "h", lanes, WithSnapshotBound(bound), WithScanRetryBudget(0))
		wide := NewFASnapshot(w, "w", lanes)
		if !helped.Multiword() {
			t.Fatal("fuzz config must stripe")
		}
		for _, b := range data {
			th := sim.SoloThread(int(b) % lanes)
			if b%2 == 0 {
				v := int64(b)
				helped.Update(th, v)
				wide.Update(th, v)
			} else if p, v := helped.Scan(th), wide.Scan(th); !reflect.DeepEqual(p, v) {
				t.Fatalf("helped Scan = %v, wide Scan = %v", p, v)
			}
		}
		th := sim.SoloThread(0)
		if p, v := helped.Scan(th), wide.Scan(th); !reflect.DeepEqual(p, v) {
			t.Fatalf("final helped Scan = %v, wide Scan = %v", p, v)
		}
	})
}
