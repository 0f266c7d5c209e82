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

// opRebase models a live cutover as the operation it linearizes as: a Scan
// returning the final validated view the migrator deposits (see Rebase).
func opRebase(s *FASnapshot) sim.Op {
	return sim.Op{
		Name: "rebase()",
		Spec: spec.MkOp(spec.MethodScan),
		Run: func(th prim.Thread) string {
			return spec.RespVec(s.RebaseView(th))
		},
	}
}

// TestRebaseSequentialSolo walks the full cutover lifecycle single-threaded:
// values survive re-basing, the sequence watermark resets (the renewal the
// watermark drives), stale-generation operations self-heal through the next
// pointers, and a second cutover stacks on the first.
func TestRebaseSequentialSolo(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(mwBound3), WithLiveRebase(true))
	if !s.Multiword() || !s.RebaseEnabled() || s.Words() != 2 {
		t.Fatalf("engine = %s x %d words, rebase %v; want multiword x 2 with rebase", s.Engine(), s.Words(), s.RebaseEnabled())
	}
	s.Update(sim.SoloThread(0), 7)
	s.Update(sim.SoloThread(2), 9)
	if wm := s.SeqWatermark(sim.SoloThread(0)); wm == 0 {
		t.Fatal("updates must raise the sequence watermark")
	}
	if g := s.Generation(sim.SoloThread(0)); g != 0 {
		t.Fatalf("generation before any cutover = %d, want 0", g)
	}

	view := s.RebaseView(sim.SoloThread(1))
	if want := []int64{7, 0, 9}; !reflect.DeepEqual(view, want) {
		t.Fatalf("rebase view = %v, want %v", view, want)
	}
	if g := s.Generation(sim.SoloThread(0)); g != 1 {
		t.Fatalf("generation after cutover = %d, want 1", g)
	}
	if s.CutoverInFlight(sim.SoloThread(0)) {
		t.Fatal("an installed cutover must not report in-flight")
	}
	if wm := s.SeqWatermark(sim.SoloThread(0)); wm != 0 {
		t.Fatalf("sequence watermark after cutover = %d, want 0 (fresh words)", wm)
	}
	// Readers and writers pinned to the retired generation self-heal.
	if got := spec.RespVec(s.Scan(sim.SoloThread(0))); got != "[7 0 9]" {
		t.Fatalf("post-cutover scan = %s, want [7 0 9]", got)
	}
	s.Update(sim.SoloThread(2), 11) // diverts: its pin still names generation 0
	if got := spec.RespVec(s.Scan(sim.SoloThread(1))); got != "[7 0 11]" {
		t.Fatalf("scan after diverted update = %s, want [7 0 11]", got)
	}

	if id := s.Rebase(sim.SoloThread(1)); id != 2 {
		t.Fatalf("second cutover generation = %d, want 2", id)
	}
	s.Update(sim.SoloThread(0), 8)
	if got := spec.RespVec(s.Scan(sim.SoloThread(2))); got != "[8 0 11]" {
		t.Fatalf("scan on generation 2 = %s, want [8 0 11]", got)
	}
	st := s.RebaseStats()
	if st.Generations != 2 || st.Diverts == 0 {
		t.Fatalf("stats = %+v, want 2 generations and diverted updates", st)
	}
}

// TestRebaseCutoverStrongLin model-checks the cutover exhaustively: every
// interleaving of one writer against one full live Rebase on the 2-word
// engine, decided by the execution-tree game checker with Rebase modeled as
// the scan it linearizes as. The await step keeps the tree honest AND small:
// a diverted writer is simply not schedulable until the install lands, so
// its reconciliation steps cannot interleave with the migrator at all. The
// tallies prove the divert path is actually inside the envelope.
func TestRebaseCutoverStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cutover exploration (skipped in -short)")
	}
	var diverts, generations int64
	tally := func(op sim.Op, s *FASnapshot) sim.Op {
		run := op.Run
		op.Run = func(th prim.Thread) string {
			resp := run(th)
			st := s.RebaseStats()
			if st.Diverts > 0 {
				atomic.AddInt64(&diverts, 1)
			}
			if st.Generations > 0 {
				atomic.AddInt64(&generations, 1)
			}
			return resp
		}
		return op
	}
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(mwBound2), WithLiveRebase(true)) // 1 lane/word x 2 words
		return []sim.Program{
			{tally(opUpdate(s, 0, 1), s)}, // word-0 writer: payload XADD is also its announce
			{tally(opRebase(s), s)},
		}
	}
	v := verifySL(t, 2, setup, spec.Snapshot{})
	if atomic.LoadInt64(&generations) == 0 {
		t.Fatal("no explored branch completed a cutover")
	}
	if atomic.LoadInt64(&diverts) == 0 {
		t.Fatal("no explored branch diverted the writer (the cutover race is not in the envelope)")
	}
	t.Logf("cutover envelope: %d nodes, %d leaves, %d divert branches", v.Nodes, v.Leaves, atomic.LoadInt64(&diverts))
}

// TestRebaseParkAdoptCrafted drives the SHIPPED engine through a
// deterministic park-adopt: a scan discovers the cutover in-round after the
// migrator deposits its final validated collect, and adopts that deposit
// under the fresh word-0 witness — returning the pre-cutover state without
// ever touching the successor.
func TestRebaseParkAdoptCrafted(t *testing.T) {
	var st RebaseStats
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(mwBound3), WithLiveRebase(true)) // lanes 0,1 word 0; lane 2 word 1
		scan := sim.Op{
			Name: "scan()",
			Spec: spec.MkOp(spec.MethodScan),
			Run: func(th prim.Thread) string {
				resp := spec.RespVec(s.Scan(th))
				st = s.RebaseStats()
				return resp
			},
		}
		return []sim.Program{
			{opUpdate(s, 0, 7)}, // completes pre-arm: the state the cutover carries over
			{scan},
			{opRebase(s)},
		}
	}
	window := []int{
		0, 0, 0, // writer: invoke, payload w0 (also announce), pressure poll (0) -> returns
		1, 1, 1, // scan: invoke, initial collect (w1, w0)
		2, 2, 2, 2, 2, // migrator: invoke, next read, pressure read, ARM, arm announce
		1, 1, 1, // scan round: w1, pressure (cut), w0 (arm bump -> differs) -> invalid
		2, 2, 2, 2, 2, // migrator: final collect w1, w0; round w1, w0 -> valid; DEPOSIT
		1, 1, 1, // scan round: w1, pressure (cut), w0 -> valid, cutover in flight -> PARK
		1, 1, // scan: slot read (deposit), fresh w0 == deposit w0 -> ADOPT
		2, 2, 2, 2, 2, // migrator: pre-load (read, correct, read), flip announce, INSTALL
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
		t.Fatalf("crafted park-adopt did not complete (schedule %v)", exec.Schedule)
	}
	h := history.FromEvents(3, exec.Ops, exec.Events)
	if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
		t.Fatalf("crafted park-adopt history not linearizable: %s", h.String())
	}
	if st.ParkAdopts == 0 {
		t.Fatalf("crafted schedule did not reach the park-adopt path (stats %+v, schedule %v)", st, exec.Schedule)
	}
	if got, want := exec.Responses()[1], spec.RespVec([]int64{7, 0, 0}); got != want {
		t.Fatalf("parked scan returned %s, want %s (the migrator's deposit)", got, want)
	}
	t.Logf("park-adopt stats %+v, history: %s", st, h.String())
}

// TestRebaseParkAwaitCrafted is the other park outcome: the migrator's flip
// announce lands before the parked scan's witness, so the adoption fails,
// the scan awaits the install (a reader parked across the whole cutover)
// and re-collects on the successor — whose pre-loaded payload must carry
// the pre-cutover values.
func TestRebaseParkAwaitCrafted(t *testing.T) {
	var st RebaseStats
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(mwBound3), WithLiveRebase(true)) // lanes 0,1 word 0; lane 2 word 1
		scan := sim.Op{
			Name: "scan()",
			Spec: spec.MkOp(spec.MethodScan),
			Run: func(th prim.Thread) string {
				resp := spec.RespVec(s.Scan(th))
				st = s.RebaseStats()
				return resp
			},
		}
		return []sim.Program{
			{opUpdate(s, 0, 7)},
			{scan},
			{opRebase(s)},
		}
	}
	window := []int{
		0, 0, 0, // writer completes pre-arm
		1, 1, 1, // scan: invoke, initial collect (w1, w0)
		2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, // migrator: the ENTIRE cutover, install included
		1, 1, 1, // scan round: w1, pressure (cut), w0 (arm+flip bumps) -> invalid
		1, 1, 1, // scan round: valid, cutover in flight -> PARK
		1, 1, // scan: slot read, fresh w0 -> flip announce moved it: witness FAILS
		1,    // scan: await the install (already landed: one conditional step)
		1, 1, // scan on the successor: initial collect
		1, 1, 1, // scan round: w1, pressure (no bit), w0 -> valid -> return
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
		t.Fatalf("crafted park-await did not complete (schedule %v)", exec.Schedule)
	}
	h := history.FromEvents(3, exec.Ops, exec.Events)
	if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
		t.Fatalf("crafted park-await history not linearizable: %s", h.String())
	}
	if st.ParkWaits == 0 {
		t.Fatalf("crafted schedule did not reach the park-await path (stats %+v, schedule %v)", st, exec.Schedule)
	}
	if got, want := exec.Responses()[1], spec.RespVec([]int64{7, 0, 0}); got != want {
		t.Fatalf("parked scan returned %s, want %s (the re-based payload)", got, want)
	}
	t.Logf("park-await stats %+v, history: %s", st, h.String())
}

// TestRebaseFlipEarlyLosesUpdate pins the protocol's one load-bearing
// ordering with its negative twin: a migrator that seeds the successor from
// a collect taken BEFORE arming (rebaseFlipEarly) races a writer that
// completes in the seed-to-arm window — the write is in no deposit and no
// divert, so the post-cutover scan misses a COMPLETED update and the
// history is not even linearizable. The same schedule shape against the
// shipped Rebase keeps the value.
func TestRebaseFlipEarlyLosesUpdate(t *testing.T) {
	run := func(t *testing.T, buggy bool) (string, bool) {
		setup := func(w *sim.World) []sim.Program {
			s := NewFASnapshot(w, "snap", 2, WithSnapshotBound(mwBound2), WithLiveRebase(true))
			var mig sim.Op
			if buggy {
				mig = sim.Op{
					Name: "rebase-flip-early()",
					// The twin changes no component values, so it is modeled
					// as a no-op update of its own lane; the damage shows up
					// in the scan that follows it.
					Spec: spec.MkOp(spec.MethodUpdate, 1, 0),
					Run: func(th prim.Thread) string {
						s.rebaseFlipEarly(th)
						return spec.RespOK
					},
				}
			} else {
				mig = opRebase(s)
			}
			scan := sim.Op{
				Name: "scan()",
				Spec: spec.MkOp(spec.MethodScan),
				Run: func(th prim.Thread) string {
					return spec.RespVec(s.Scan(th))
				},
			}
			return []sim.Program{
				{opUpdate(s, 0, 1)}, // completes in the seed-to-arm window
				{mig, scan},
			}
		}
		window := []int{
			1, 1, 1, 1, // twin: invoke, live-gen read, premature seed collect (w0, w1)
			0, 0, 0, // writer: invoke, payload w0, pressure poll (no bit yet!) -> COMPLETES
			// the migrator runs everything else to completion, then its scan
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
			return v.Enabled[len(v.Enabled)-1] // drain the migrator+scan first
		}
		exec, err := sim.RunToCompletion(2, setup, policy, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !exec.Complete {
			t.Fatalf("crafted flip-early run did not complete (schedule %v)", exec.Schedule)
		}
		h := history.FromEvents(2, exec.Ops, exec.Events)
		return exec.Responses()[2], history.CheckLinearizable(h, spec.Snapshot{}).Ok
	}

	view, lin := run(t, true)
	if lin {
		t.Fatal("flip-early cutover must LOSE the update completed in its seed-to-arm window (history wrongly linearizable)")
	}
	if want := spec.RespVec([]int64{0, 0}); view != want {
		t.Fatalf("flip-early post-cutover scan = %s, want %s (the lost update)", view, want)
	}
	view, lin = run(t, false)
	if !lin {
		t.Fatal("the shipped Rebase on the same schedule shape must stay linearizable")
	}
	if want := spec.RespVec([]int64{1, 0}); view != want {
		t.Fatalf("shipped post-cutover scan = %s, want %s (the update carried over)", view, want)
	}
}

// TestRebaseParkBlindAdoptNotStrongLin pins the park path's negative twin:
// a parked scan that adopts the help slot WITHOUT the fresh word-0 witness
// (scanParkBlindAdoptInto). A stale pre-arm helper deposit can survive in
// the slot when the migrator arms — the word-0 update that staled it had
// its own help attempt invalidated into giving up — and the blind park
// swallows it. The two futures diverge on which deposit the twin adopts
// (the stale one, missing a COMPLETED update, or the migrator's fresh final
// collect), each leaf stays linearizable, and no prefix-closed
// linearization survives both: the game checker refutes strong
// linearizability on the schedule tree, soundly (a pruned tree only removes
// futures). The CUTOVER does not exempt the announce-as-final-step rule — a
// park adoption needs the same closing witness every other return path
// carries, which is exactly what the arm announce feeds it.
func TestRebaseParkBlindAdoptNotStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 4, WithSnapshotBound(mwBound24), WithLiveRebase(true)) // lanes 0,1 word 0; lanes 2,3 word 1
		twin := sim.Op{
			Name: "scan-park-blind()",
			Spec: spec.MkOp(spec.MethodScan),
			Run: func(th prim.Thread) string {
				return spec.RespVec(s.scanParkBlindAdoptInto(th, make([]int64, 4)))
			},
		}
		return []sim.Program{
			{opUpdate(s, 0, 1)}, // word 0: completes while the stale deposit survives
			{twin},
			{opUpdate(s, 2, 2), opUpdate(s, 2, 3)}, // word 1: depositor, then the diverted straggler
			{opRebase(s)},
		}
	}
	// Shared prefix (mirrors the adopt-unanchored refutation, plus the arm):
	// the twin raises pressure and collects; upd2a deposits a validated
	// [0 0 2]; upd0's payload lands (staling the deposit) and upd2b's payload
	// invalidates upd0's single help attempt, so upd0 gives up and RETURNS
	// with the stale deposit still in the slot; then the migrator ARMS.
	prefix := []int{
		1, 1, 1, 1, // twin: invoke, raise, initial collect (w1, w0)
		2, 2, 2, 2, // upd2a: invoke, payload w1, announce w0, pressure poll (1)
		2, 2, 2, 2, // upd2a help: initial w1, w0; round w1, w0 -> valid
		2,          // upd2a: deposit [0 0 2 0] -> returns
		2,          // upd2b: invoke
		0, 0, 0, 0, // upd0: invoke, payload w0 (stales the deposit), pressure poll (1), help initial w1
		2,       // upd2b: payload w1 (invalidates upd0's help baseline)
		0, 0, 0, // upd0 help: initial w0; round w1 (differs), round w0 -> attempt spent -> upd0 RETURNS
		3, 3, 3, 3, 3, // migrator: invoke, next read, pressure read, ARM, arm announce
	}
	// Future A: the twin parks NOW and blindly adopts the STALE deposit
	// (view [0 0 2], missing completed upd0); the migrator then finishes the
	// cutover and upd2b diverts onto the successor.
	futureA := append(append([]int{
		1, 1, 1, // twin round: w1 (differs), pressure (cut), w0 -> invalid
		1, 1, 1, // twin round: valid, cutover in flight
		1, // twin: slot read -> BLIND adopt of the stale [0 0 2 0]
		1, // twin: lower pressure -> returns
	}, []int{
		3, 3, 3, 3, // migrator: final collect w1, w0; round w1, w0 -> valid
		3,          // migrator: deposit [1 0 3 0]
		3, 3, 3, 3, // migrator: pre-load (read, correct) x 2 words
		3, 3, // migrator: flip announce, INSTALL
	}...), []int{
		2, 2, // upd2b: announce w0, pressure poll (bit) -> divert
		2, 2, // upd2b: await install, successor lane read (3 == v) -> returns
	}...)
	// Future B: the migrator deposits its final collect FIRST, so the same
	// blind adoption takes the FRESH deposit (view [1 0 3], with upd0).
	futureB := append(append([]int{
		3, 3, 3, 3, 3, // migrator: final collect + round -> valid, deposit [1 0 3 0]
	}, []int{
		1, 1, 1, 1, 1, 1, 1, 1, // twin: two rounds, slot read -> adopts [1 0 3 0], lower
	}...), []int{
		3, 3, 3, 3, 3, 3, // migrator: pre-load x 2, flip announce, INSTALL
		2, 2, 2, 2, // upd2b: announce, poll -> divert, await, successor read
	}...)

	futures := []struct {
		name, wantScan string
		sched          []int
	}{
		{"A", spec.RespVec([]int64{0, 0, 2, 0}), append(append([]int{}, prefix...), futureA...)},
		{"B", spec.RespVec([]int64{1, 0, 3, 0}), append(append([]int{}, prefix...), futureB...)},
	}
	var schedules [][]int
	for _, f := range futures {
		exec, err := sim.Run(4, setup, f.sched)
		if err != nil {
			t.Fatalf("schedule %s: %v", f.name, err)
		}
		if !exec.Complete {
			t.Fatalf("schedule %s incomplete: %v (enabled at end: %v)", f.name, exec.Schedule, exec.Enabled[len(exec.Enabled)-1])
		}
		if got := exec.Responses()[1]; got != f.wantScan {
			t.Fatalf("schedule %s: twin scan returned %s, want %s", f.name, got, f.wantScan)
		}
		h := history.FromEvents(4, exec.Ops, exec.Events)
		if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
			t.Fatalf("schedule %s must stay linearizable (adopted deposits are true states): %s", f.name, h.String())
		}
		schedules = append(schedules, append([]int{}, exec.Schedule...))
	}

	tree, err := sim.TreeFromSchedules(4, setup, schedules)
	if err != nil {
		t.Fatal(err)
	}
	res := history.CheckStrongLin(tree, spec.Snapshot{}, nil)
	if res.Ok {
		t.Fatal("the witness-free park adoption must NOT be strongly linearizable on the branching futures")
	}
	t.Logf("blind park adoption commitment counterexample: %v", res.Counterexample)
}

// TestRebaseRealWorldStress hammers live cutovers on real hardware: writers
// and scanners run free while a migrator re-bases repeatedly. Views must
// stay pairwise comparable across generations (per-lane monotone), and after
// quiescing plus a final cutover nothing may be lost.
func TestRebaseRealWorldStress(t *testing.T) {
	t.Run("collect", func(t *testing.T) {
		w := prim.NewRealWorld()
		const lanes = 4
		s := NewFASnapshot(w, "snap", lanes, WithSnapshotBound(mwBound2),
			WithLiveRebase(true), WithScanRetryBudget(0))
		if !s.Multiword() || !s.RebaseEnabled() {
			t.Fatal("config must stripe with rebase on")
		}
		const writers, perWriter, rebases = 2, 600, 40
		var wg sync.WaitGroup
		last := make([]int64, lanes)
		for p := 0; p < writers; p++ {
			wg.Add(1)
			last[p] = int64(perWriter)
			go func(p int) {
				defer wg.Done()
				th := prim.RealThread(p)
				for v := int64(1); v <= perWriter; v++ {
					s.Update(th, v)
				}
			}(p)
		}
		var scanErr error
		var scanMu sync.Mutex
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := prim.RealThread(2)
			prev := make([]int64, lanes)
			view := make([]int64, lanes)
			for i := 0; i < 4*perWriter; i++ {
				s.ScanInto(th, view)
				for l := range view {
					if view[l] < prev[l] {
						scanMu.Lock()
						if scanErr == nil {
							scanErr = &laneRegression{lane: l, prev: prev[l], got: view[l]}
						}
						scanMu.Unlock()
						return
					}
				}
				copy(prev, view)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := prim.RealThread(3)
			for i := 0; i < rebases; i++ {
				s.Rebase(th)
			}
		}()
		wg.Wait()
		if scanErr != nil {
			t.Fatal(scanErr)
		}
		// Quiesce: one final cutover, then the view must hold every
		// writer's last value — nothing lost across any generation.
		th := prim.RealThread(3)
		s.Rebase(th)
		final := s.Scan(prim.RealThread(2))
		for p := 0; p < writers; p++ {
			if final[p] != last[p] {
				t.Fatalf("lane %d after quiesce+cutover = %d, want %d (lost update): view %v", p, final[p], last[p], final)
			}
		}
		st := s.RebaseStats()
		if st.Generations < rebases {
			t.Fatalf("generations = %d, want >= %d", st.Generations, rebases)
		}
		t.Logf("%+v, final view %v", st, final)
	})
}

type laneRegression struct {
	lane      int
	prev, got int64
}

func (e *laneRegression) Error() string {
	return "scan lane went backwards across cutovers"
}

// TestRebaseModeOpsAllocFree pins that merely ENABLING live re-base keeps
// the steady-state hot paths allocation-free — the generation indirection
// adds a pointer hop, not garbage.
func TestRebaseModeOpsAllocFree(t *testing.T) {
	w := prim.NewRealWorld()
	s := NewFASnapshot(w, "snap", 3, WithSnapshotBound(mwBound3), WithLiveRebase(true))
	th := prim.RealThread(0)
	s.Rebase(prim.RealThread(1)) // measure on generation 1: post-cutover steady state
	var v int64
	if allocs := testing.AllocsPerRun(200, func() {
		v++
		s.Update(th, v%mwBound3)
	}); allocs != 0 {
		t.Errorf("rebase-mode Update allocates %.1f objects/op, want 0", allocs)
	}
	view := make([]int64, 3)
	if allocs := testing.AllocsPerRun(200, func() {
		s.ScanInto(th, view)
	}); allocs != 0 {
		t.Errorf("rebase-mode ScanInto allocates %.1f objects/op, want 0", allocs)
	}
}
