package core

import (
	"fmt"
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// maxStepsPerOp walks the execution tree and returns, for each operation,
// the largest number of base-object steps it takes over any branch. This
// turns the paper's progress claims into checkable facts: wait-free
// operations have a bound independent of scheduling; lock-free-only
// operations grow with contention.
func maxStepsPerOp(tree *sim.Tree) map[int]int {
	out := make(map[int]int)
	counts := make(map[int]int)
	var walk func(n *sim.Node)
	walk = func(n *sim.Node) {
		deltas := make(map[int]int)
		for _, ev := range n.Events {
			if ev.Kind == sim.EventStep {
				deltas[ev.OpID]++
			}
		}
		for id, d := range deltas {
			counts[id] += d
			if counts[id] > out[id] {
				out[id] = counts[id]
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
		for id, d := range deltas {
			counts[id] -= d
		}
	}
	walk(tree.Root)
	return out
}

func maxSteps(m map[int]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// Wait-freedom of the fetch&add constructions (Theorems 1, 2): every
// operation takes EXACTLY one shared step in every interleaving.
func TestMaxRegisterWaitFreeBound(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "m", 2)
		return []sim.Program{
			{opWriteMax(m, 1), opReadMax(m)},
			{opWriteMax(m, 2), opReadMax(m)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSteps(maxStepsPerOp(tree)); got != 1 {
		t.Fatalf("max steps per op = %d, want 1 (single fetch&add)", got)
	}
}

func TestSnapshotWaitFreeBound(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "s", 2)
		return []sim.Program{
			{opUpdate(s, 0, 3), opScan(s)},
			{opUpdate(s, 1, 4), opScan(s)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSteps(maxStepsPerOp(tree)); got != 1 {
		t.Fatalf("max steps per op = %d, want 1", got)
	}
}

// Wait-freedom of Theorem 5: TestAndSet takes exactly 2 steps, Read 1, in
// every interleaving.
func TestReadableTASWaitFreeBound(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		r := NewReadableTAS(w, "r")
		return []sim.Program{
			{opTAS(r)},
			{opTAS(r), opTASRead(r)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := maxStepsPerOp(tree)
	if steps[0] != 2 || steps[1] != 2 {
		t.Fatalf("TestAndSet steps = %d/%d, want 2", steps[0], steps[1])
	}
	if steps[2] != 1 {
		t.Fatalf("Read steps = %d, want 1", steps[2])
	}
}

// Wait-freedom of Theorem 6 over atomic bases: every operation is bounded
// by 3 steps (readMax + TS access [+ writeMax]) in every interleaving.
func TestMultiShotTASWaitFreeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMultiShotTASAtomic(w, "m")
		return []sim.Program{
			{opTAS(m), opReset(m)},
			{opTASRead(m), opReset(m)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSteps(maxStepsPerOp(tree)); got > 3 {
		t.Fatalf("max steps per op = %d, want <= 3", got)
	}
}

// Theorem 9's fetch&increment is lock-free but NOT wait-free: under the
// adversarial schedule that lets all other processes win first, the victim's
// step count grows linearly with the number of competitors — no
// schedule-independent bound exists.
func TestFetchIncNotWaitFree(t *testing.T) {
	steps := make([]int, 0, 3)
	for _, competitors := range []int{1, 2, 3} {
		n := competitors + 1
		setup := func(w *sim.World) []sim.Program {
			f := NewFetchIncAtomic(w, "f")
			progs := make([]sim.Program, n)
			for i := range progs {
				progs[i] = sim.Program{opFAI(f)}
			}
			return progs
		}
		// Adversary: run every competitor to completion, then the victim
		// (process 0).
		var sched []int
		for p := 1; p < n; p++ {
			// invoke + p TAS attempts (competitor p wins slot p).
			for k := 0; k <= p; k++ {
				sched = append(sched, p)
			}
		}
		exec, err := sim.Run(n, setup, sched)
		if err != nil {
			t.Fatal(err)
		}
		if !allOthersDone(exec, n) {
			t.Fatalf("competitors not done under schedule %v: %s", sched, exec)
		}
		// Victim: invoke + scan over all claimed slots + winning attempt.
		victim := append(append([]int{}, sched...), rep0(n+1)...)
		exec, err = sim.Run(n, setup, victim)
		if err != nil {
			t.Fatal(err)
		}
		resp, ok := exec.Responses()[0]
		if !ok {
			t.Fatalf("victim did not finish with %d extra grants", n+1)
		}
		if want := spec.RespInt(int64(n)); resp != want {
			t.Fatalf("victim got %s, want %s (last slot)", resp, want)
		}
		victimSteps := 0
		for _, ev := range exec.Events {
			if ev.Kind == sim.EventStep && ev.OpID == 0 {
				victimSteps++
			}
		}
		steps = append(steps, victimSteps)
	}
	if !(steps[0] < steps[1] && steps[1] < steps[2]) {
		t.Fatalf("victim step counts %v do not grow with contention", steps)
	}
}

func allOthersDone(exec *sim.Execution, n int) bool {
	resps := exec.Responses()
	for _, oi := range exec.Ops {
		if oi.Proc != 0 {
			if _, ok := resps[oi.ID]; !ok {
				return false
			}
		}
	}
	return true
}

func rep0(n int) []int {
	out := make([]int, n)
	return out
}

// Algorithm 2's take is lock-free but not wait-free: a take whose items are
// stolen by other takes pays a scan over every claimed slot (twice, for the
// stability check); its step count grows with the churn that happened, with
// no schedule-independent bound.
func TestTASSetTakeNotWaitFree(t *testing.T) {
	victimSteps := func(churn int) int {
		setup := func(w *sim.World) []sim.Program {
			s := NewTASSetAtomic(w, "s")
			churner := make(sim.Program, 0, 2*churn)
			for i := 0; i < churn; i++ {
				churner = append(churner, opPut(s, int64(10+i)))
			}
			for i := 0; i < churn; i++ {
				churner = append(churner, opTake(s))
			}
			return []sim.Program{{opTake(s)}, churner}
		}
		// Priority policy: the churner (p1) runs to completion first; the
		// victim (p0) then scans a fully-claimed region.
		policy := func(v sim.PolicyView) int {
			return v.Enabled[len(v.Enabled)-1]
		}
		exec, err := sim.RunToCompletion(2, setup, policy, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !exec.Complete {
			t.Fatal("run incomplete")
		}
		if got := exec.Responses()[0]; got != spec.RespEmpty {
			t.Fatalf("victim take = %s, want empty", got)
		}
		steps := 0
		for _, ev := range exec.Events {
			if ev.Kind == sim.EventStep && ev.OpID == 0 {
				steps++
			}
		}
		return steps
	}
	s1, s2, s3 := victimSteps(1), victimSteps(2), victimSteps(4)
	if !(s1 < s2 && s2 < s3) {
		t.Fatalf("victim step counts %d,%d,%d do not grow with churn", s1, s2, s3)
	}
}

// --- wait-freedom of the helped multi-word scan (PR 5) -----------------------
//
// The storm adversary itself (sim.AnchorStormPolicy) lives in internal/sim
// so that this witness and internal/shard's drive the identical scheduler.

// victimSteps counts the victim's shared steps in a completed execution.
func victimSteps(t *testing.T, exec *sim.Execution, victim int) int {
	t.Helper()
	if !exec.Complete {
		t.Fatalf("storm run incomplete (schedule %v)", exec.Schedule)
	}
	steps := 0
	for _, e := range exec.Events {
		if e.Kind == sim.EventStep && e.Proc == victim {
			steps++
		}
	}
	return steps
}

// multiwordStormScanSteps runs one scan against a storm of `storm`
// value-changing word-1 updates under the anchor-storm adversary and
// returns the scanner's own step count. helped selects the shipped
// (budget-0, adopting) ScanInto; otherwise the scanner runs scanSpinInto,
// the PR 4 lock-free protocol without helping. opts are appended to the
// snapshot's options.
func multiwordStormScanSteps(t *testing.T, storm int, helped bool, opts ...SnapshotOption) int {
	t.Helper()
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "snap", 2, append([]SnapshotOption{WithSnapshotBound(1<<32 - 1), WithScanRetryBudget(0)}, opts...)...)
		scan := sim.Op{
			Name: "scan()",
			Spec: spec.MkOp(spec.MethodScan),
			Run: func(th prim.Thread) string {
				if helped {
					return spec.RespVec(s.ScanInto(th, make([]int64, 2)))
				}
				return spec.RespVec(s.scanSpinInto(th, make([]int64, 2)))
			},
		}
		var updates sim.Program
		for i := 0; i < storm; i++ {
			updates = append(updates, opUpdate(s, 1, int64(1+i%2)))
		}
		return []sim.Program{{scan}, updates}
	}
	exec, err := sim.RunToCompletion(2, setup, sim.AnchorStormPolicy(0, 1, "snap.R0"), 100000)
	if err != nil {
		t.Fatal(err)
	}
	return victimSteps(t, exec, 0)
}

// TestMultiwordScanStormStarvesLockFreeBaseline pins the starvation the
// helping path exists to close: under the anchor-storm adversary the PR 4
// lock-free scan retries for as long as the storm lasts — its own step
// count grows linearly with the storm length, with no schedule-independent
// bound.
func TestMultiwordScanStormStarvesLockFreeBaseline(t *testing.T) {
	s1, s2, s3 := multiwordStormScanSteps(t, 6, false), multiwordStormScanSteps(t, 12, false), multiwordStormScanSteps(t, 24, false)
	if !(s1 < s2 && s2 < s3) {
		t.Fatalf("lock-free scan steps %d/%d/%d do not grow with the storm — the baseline is not starving", s1, s2, s3)
	}
	t.Logf("lock-free scan own steps under storms 6/12/24: %d/%d/%d (unbounded growth)", s1, s2, s3)
}

// TestMultiwordHelpedScanWaitFreeUnderStorm is the progress witness: on the
// SAME adversary schedule, the helped scan raises pressure, the storm's own
// writes deposit validated views, and the scan adopts — completing within a
// fixed own-step budget independent of the storm length.
func TestMultiwordHelpedScanWaitFreeUnderStorm(t *testing.T) {
	const fixedBudget = 16
	base := multiwordStormScanSteps(t, 6, true)
	if base > fixedBudget {
		t.Fatalf("helped scan took %d own steps, want <= %d", base, fixedBudget)
	}
	for _, storm := range []int{12, 24, 48} {
		if got := multiwordStormScanSteps(t, storm, true); got != base {
			t.Fatalf("helped scan steps = %d under storm %d, want the storm-independent %d", got, storm, base)
		}
	}
	t.Logf("helped scan own steps: %d under storms 6/12/24/48 (fixed budget %d)", base, fixedBudget)

	// The deprecated WithViewCache shim is inert: the same registers, and the
	// same scan steps on the same schedule.
	names := func(opts ...SnapshotOption) string {
		w := sim.NewSoloWorld()
		NewFASnapshot(w, "snap", 2, append([]SnapshotOption{WithSnapshotBound(1<<32 - 1)}, opts...)...)
		return fmt.Sprint(w.ObjectNames())
	}
	if got, want := names(WithViewCache(true)), names(); got != want {
		t.Fatalf("WithViewCache(true) registers %s, want %s", got, want)
	}
	if got := multiwordStormScanSteps(t, 6, true, WithViewCache(true)); got != base {
		t.Fatalf("WithViewCache(true): helped scan steps = %d, want %d", got, base)
	}
}

// Universal comparator: lock-free only — a CAS loop can be made to retry.
func TestUniversalStyleRetryVisible(t *testing.T) {
	// Two concurrent fetch&adds on the FA-based fetch&inc are wait-free
	// (fetch&add never retries); this is the contrast with CAS loops.
	setup := func(w *sim.World) []sim.Program {
		f := NewFAFetchInc(w, "f")
		return []sim.Program{{opFAI(f)}, {opFAI(f)}}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSteps(maxStepsPerOp(tree)); got != 1 {
		t.Fatalf("FA fetch&inc steps = %d, want 1 in every interleaving", got)
	}
}
