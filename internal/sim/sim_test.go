package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/spec"
)

// twoRegSetup: two processes; p0 writes r0 then reads r1, p1 writes r1 then
// reads r0. Each op is one primitive step. This is the classic
// store-buffering shape: under sequential consistency (which atomic steps
// give) at least one process must read 1.
func twoRegSetup(w *World) []Program {
	r0 := w.Register("r0", 0)
	r1 := w.Register("r1", 0)
	mkWrite := func(r prim.Register, name string) Op {
		return Op{
			Name: "write(" + name + ")",
			Spec: spec.MkOp("write"),
			Run: func(t prim.Thread) string {
				r.Write(t, 1)
				return spec.RespOK
			},
		}
	}
	mkRead := func(r prim.Register, name string) Op {
		return Op{
			Name: "read(" + name + ")",
			Spec: spec.MkOp("read"),
			Run: func(t prim.Thread) string {
				return spec.RespInt(r.Read(t))
			},
		}
	}
	return []Program{
		{mkWrite(r0, "r0"), mkRead(r1, "r1")},
		{mkWrite(r1, "r1"), mkRead(r0, "r0")},
	}
}

func TestRunFixedSchedule(t *testing.T) {
	// Each op is invoke + 1 step, so a process contributes 4 grants total.
	// Schedule p0 fully, then p1 fully.
	exec, err := Run(2, twoRegSetup, []int{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Complete {
		t.Fatalf("execution incomplete: %v", exec)
	}
	resps := exec.Responses()
	if len(resps) != 4 {
		t.Fatalf("want 4 responses, got %v", resps)
	}
	// p0 ran solo first: reads r1 = 0. p1 after: reads r0 = 1.
	if resps[1] != "0" {
		t.Errorf("p0 read = %s, want 0", resps[1])
	}
	if resps[3] != "1" {
		t.Errorf("p1 read = %s, want 1", resps[3])
	}
}

func TestRunDeterministicReplay(t *testing.T) {
	sched := []int{0, 1, 0, 1, 1, 0, 0, 1}
	a, err := Run(2, twoRegSetup, sched)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(2, twoRegSetup, sched)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("replay diverged:\n%s\n%s", a, b)
	}
}

func TestRunPrefixScheduleLeavesPending(t *testing.T) {
	exec, err := Run(2, twoRegSetup, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Complete {
		t.Fatal("prefix execution marked complete")
	}
	// p0 invoked and performed its write's step; its return is recorded with
	// that step.
	resps := exec.Responses()
	if len(resps) != 1 {
		t.Fatalf("want 1 response after 2 grants, got %v", resps)
	}
}

func TestRunRejectsDisabledProc(t *testing.T) {
	_, err := Run(2, twoRegSetup, []int{5})
	if !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("want ErrNotEnabled, got %v", err)
	}
}

func TestRunRejectsWrongProgramCount(t *testing.T) {
	_, err := Run(3, twoRegSetup, nil)
	if err == nil {
		t.Fatal("want error for program/process mismatch")
	}
}

func TestEnabledSetsShrinkAsProgramsFinish(t *testing.T) {
	exec, err := Run(2, twoRegSetup, []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	last := exec.Enabled[len(exec.Enabled)-1]
	if len(last) != 1 || last[0] != 1 {
		t.Fatalf("enabled after p0 finished = %v, want [1]", last)
	}
}

func TestResponseRecordedAtomicallyWithLastStep(t *testing.T) {
	exec, err := Run(2, twoRegSetup, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Batch of grant 1 (p0's write step) must contain the step AND the
	// return, in that order.
	batch := exec.Batch(1)
	if len(batch) != 2 || batch[0].Kind != EventStep || batch[1].Kind != EventReturn {
		t.Fatalf("batch = %v", batch)
	}
}

func TestStoreBufferingImpossibleOutcomeNeverHappens(t *testing.T) {
	// Atomic steps are sequentially consistent: both processes reading 0 is
	// impossible. Check over every interleaving.
	tree, err := Explore(2, twoRegSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen00 := false
	tree.Walk(func(n *Node, trace []Event) bool {
		if !n.Complete {
			return true
		}
		var r0, r1 string
		for _, ev := range trace {
			if ev.Kind == EventReturn {
				switch ev.OpID {
				case 1:
					r0 = ev.Resp
				case 3:
					r1 = ev.Resp
				}
			}
		}
		if r0 == "0" && r1 == "0" {
			seen00 = true
		}
		return true
	})
	if seen00 {
		t.Fatal("store-buffering outcome (0,0) observed under atomic-step semantics")
	}
}

func TestExploreCountsMatchClosedForm(t *testing.T) {
	// Two processes with 4 grants each: leaves = C(8,4) = 70; nodes =
	// sum over lattice paths = C(8,4) interior structure — check leaves and
	// that every leaf is complete.
	tree, err := Explore(2, twoRegSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves != 70 {
		t.Fatalf("leaves = %d, want 70", tree.Leaves)
	}
	if tree.Truncated {
		t.Fatal("tree unexpectedly truncated")
	}
	incomplete := 0
	tree.Walk(func(n *Node, _ []Event) bool {
		if len(n.Children) == 0 && !n.Complete {
			incomplete++
		}
		return true
	})
	if incomplete != 0 {
		t.Fatalf("%d incomplete leaves", incomplete)
	}
}

func TestExploreTruncation(t *testing.T) {
	tree, err := Explore(2, twoRegSetup, &ExploreOptions{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Truncated {
		t.Fatal("want truncated tree")
	}
	if tree.Nodes > 11 {
		t.Fatalf("nodes = %d, want <= 11", tree.Nodes)
	}
}

func TestRunPolicyRandomCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		exec, err := RunToCompletion(2, twoRegSetup, RandomPolicy(rng), 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !exec.Complete {
			t.Fatalf("random run %d incomplete", i)
		}
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	exec, err := RunToCompletion(2, twoRegSetup, RoundRobinPolicy(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Complete {
		t.Fatal("round-robin run incomplete")
	}
	// Alternation: first two grants must be p0 then p1.
	if exec.Schedule[0] != 0 || exec.Schedule[1] != 1 {
		t.Fatalf("schedule = %v, want alternation", exec.Schedule[:2])
	}
}

func TestPanicInOperationSurfacesAsError(t *testing.T) {
	setup := func(w *World) []Program {
		r := w.Register("r", 0)
		return []Program{{
			{
				Name: "boom",
				Spec: spec.MkOp("boom"),
				Run: func(t prim.Thread) string {
					r.Read(t)
					panic("kaboom")
				},
			},
		}}
	}
	_, err := Run(1, setup, []int{0, 0})
	if err == nil {
		t.Fatal("want error from panicking operation")
	}
}

func TestReadObjectIsAStep(t *testing.T) {
	setup := func(w *World) []Program {
		w.Register("r", 42)
		return []Program{{
			{
				Name: "peek",
				Spec: spec.MkOp("peek"),
				Run: func(t prim.Thread) string {
					st := w.ReadObject(t, "r")
					return st.String()
				},
			},
		}}
	}
	exec, err := Run(1, setup, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.Responses()[0]; got != "42" {
		t.Fatalf("ReadObject = %s, want 42", got)
	}
	// The read-state access must appear as a step event.
	foundStep := false
	for _, ev := range exec.Events {
		if ev.Kind == EventStep && ev.Info == "read-state(r)" {
			foundStep = true
		}
	}
	if !foundStep {
		t.Fatal("read-state step not recorded")
	}
}

func TestSoloWorldInlineExecution(t *testing.T) {
	w := NewSoloWorld()
	r := w.Register("r", 0)
	ops := []Op{
		{Name: "w", Spec: spec.MkOp("w"), Run: func(t prim.Thread) string { r.Write(t, 9); return spec.RespOK }},
		{Name: "r", Spec: spec.MkOp("r"), Run: func(t prim.Thread) string { return spec.RespInt(r.Read(t)) }},
	}
	out, err := RunInline(w, 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != "9" {
		t.Fatalf("inline read = %s, want 9", out[1])
	}
}

func TestLoadStatesFork(t *testing.T) {
	// Simulate the Lemma 12 fork: collect states from one world, load them
	// into a fresh world built by the same setup, continue solo.
	build := func(w *World) prim.Register { return w.Register("r", 0) }

	w1 := NewSoloWorld()
	r1 := build(w1)
	r1.Write(SoloThread(0), 77)
	st, ok := w1.PeekObject("r")
	if !ok {
		t.Fatal("PeekObject failed")
	}

	w2 := NewSoloWorld()
	r2 := build(w2)
	w2.LoadStates(map[string]ObjState{"r": st})
	if got := r2.Read(SoloThread(1)); got != 77 {
		t.Fatalf("forked read = %d, want 77", got)
	}
	// Mutating the fork must not affect the original.
	r2.Write(SoloThread(1), 5)
	st1, _ := w1.PeekObject("r")
	if st1.I64 != 77 {
		t.Fatalf("fork mutation leaked into original: %v", st1)
	}
}

func TestSimPrimitivesSemantics(t *testing.T) {
	w := NewSoloWorld()
	th := SoloThread(0)

	ts := w.TAS("ts")
	if ts.Read(th) != 0 || ts.TestAndSet(th) != 0 || ts.TestAndSet(th) != 1 || ts.Read(th) != 1 {
		t.Error("TAS semantics broken")
	}

	sw := w.Swap("sw", 3)
	if sw.Swap(th, 8) != 3 || sw.Read(th) != 8 {
		t.Error("Swap semantics broken")
	}

	c := w.CAS("c", 0)
	if c.CompareAndSwap(th, 1, 2) || !c.CompareAndSwap(th, 0, 2) || c.Read(th) != 2 {
		t.Error("CAS semantics broken")
	}

	type nd struct{ x int }
	n1, n2 := &nd{1}, &nd{2}
	cc := w.CASCell("cc", n1)
	if cc.Load(th) != any(n1) || cc.CompareAndSwap(th, n2, n1) || !cc.CompareAndSwap(th, n1, n2) {
		t.Error("CASCell semantics broken")
	}
}

func TestTAS2DisciplineInSim(t *testing.T) {
	w := NewSoloWorld()
	ts := w.TAS2("t2", 0, 1)
	if ts.TestAndSet(SoloThread(0)) != 0 {
		t.Fatal("owner access failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("third-party access did not panic")
		}
	}()
	ts.TestAndSet(SoloThread(2))
}

func TestDuplicateObjectNamePanics(t *testing.T) {
	w := NewSoloWorld()
	w.Register("x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	w.TAS("x")
}

// TestBlockFallbackNamesElements: only the real world backs a prim block
// with a flat slice, so in the simulated world a block is n objects named
// name[i], each its own base object at the block's init, and its duplicate
// check guards every element.
func TestBlockFallbackNamesElements(t *testing.T) {
	w := NewSoloWorld()
	prim.FetchAddInts(w, "blk", 2, 5)
	prim.AnyRegisters(w, "flag", 2, false)
	want := []string{"blk[0]", "blk[1]", "flag[0]", "flag[1]"}
	if got := w.ObjectNames(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("objects = %v, want %v", got, want)
	}
	if st, ok := w.PeekObject("blk[1]"); !ok || st.I64 != 5 {
		t.Fatalf("blk[1] = %+v, %v; want 5", st, ok)
	}
	defer func() {
		want := `sim: duplicate base object name "blk[1]"`
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	w.Register("blk[1]", 0)
}

// TestBlockElementIsNamedObject: element i of a block is the simulated
// object named name[i], so an engine stepping a block steps exactly the
// objects a per-name allocation would have, and model checks see the same
// trees.
func TestBlockElementIsNamedObject(t *testing.T) {
	w := NewSoloWorld()
	th := SoloThread(0)
	fs := prim.FetchAddInts(w, "f", 4, 0)
	rs := prim.AnyRegisters(w, "r", 3, false)
	if fs.Len() != 4 || rs.Len() != 3 {
		t.Fatalf("Len = %d, %d; want 4, 3", fs.Len(), rs.Len())
	}
	for i := 0; i < fs.Len(); i++ {
		fs.At(i).FetchAddInt(th, int64(10+i))
	}
	fs.At(2).FetchAddInt(th, 100)
	for i, want := range []int64{10, 11, 112, 13} {
		if st, ok := w.PeekObject(fmt.Sprintf("f[%d]", i)); !ok || st.I64 != want {
			t.Fatalf("f[%d] = %+v, %v; want %d", i, st, ok, want)
		}
	}
	rs.At(2).WriteAny(th, true)
	for i, want := range []any{false, false, true} {
		if st, ok := w.PeekObject(fmt.Sprintf("r[%d]", i)); !ok || st.Val != want {
			t.Fatalf("r[%d] = %+v, %v; want %v", i, st, ok, want)
		}
	}
}

func TestExecutionStringIsStable(t *testing.T) {
	exec, err := Run(2, twoRegSetup, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := "p0:invoke#0 p0:r0.write(1) p0:return#0=ok"
	if got := exec.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
