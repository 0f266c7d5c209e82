package baseline

import (
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

func opEnq(q *HWQueue, v int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodEnq, v).String(),
		Spec: spec.MkOp(spec.MethodEnq, v),
		Run: func(t prim.Thread) string {
			q.Enqueue(t, v)
			return spec.RespOK
		},
	}
}

func opDeqBounded(q *HWQueue) sim.Op {
	return sim.Op{
		Name: "deq()",
		Spec: spec.MkOp(spec.MethodDeq),
		Run: func(t prim.Thread) string {
			if v, ok := q.DequeueBounded(t); ok {
				return spec.RespInt(v)
			}
			return spec.RespEmpty
		},
	}
}

func TestHWQueueSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	q := NewHWQueue(w, "q", 8)
	th := sim.SoloThread(0)
	q.Enqueue(th, 1)
	q.Enqueue(th, 2)
	q.Enqueue(th, 3)
	for want := int64(1); want <= 3; want++ {
		if got := q.Dequeue(th); got != want {
			t.Fatalf("Dequeue = %d, want %d", got, want)
		}
	}
	if _, ok := q.DequeueBounded(th); ok {
		t.Fatal("DequeueBounded on empty returned a value")
	}
}

func TestHWQueueRejectsNonPositive(t *testing.T) {
	q := NewHWQueue(sim.NewSoloWorld(), "q", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue(0) did not panic")
		}
	}()
	q.Enqueue(sim.SoloThread(0), 0)
}

func hwSetup(w *sim.World) []sim.Program {
	q := NewHWQueue(w, "q", 4)
	return []sim.Program{
		{opEnq(q, 1)},
		{opEnq(q, 2)},
		{opDeqBounded(q), opDeqBounded(q)},
	}
}

// E-T17a: the Herlihy–Wing queue is linearizable on every interleaving of
// the bounded configuration...
func TestHWQueueLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	tree, err := sim.Explore(3, hwSetup, &sim.ExploreOptions{MaxNodes: 3000000})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Truncated {
		t.Fatal("tree truncated; shrink the configuration")
	}
	bad := 0
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 && bad == 0 {
			h := history.FromEvents(tree.Procs, tree.Ops, trace)
			if res := history.CheckLinearizable(h, spec.Queue{}); !res.Ok {
				bad++
				t.Errorf("non-linearizable leaf: %s", h.String())
			}
		}
		return true
	})
}

// ... but E-T17b: it is NOT strongly linearizable — as Theorem 17 proves for
// every lock-free 1-ordering implementation from fetch&add/swap/test&set.
//
// The witness tree has a common prefix in which p1's enq(2) is complete,
// p0's enq(1) holds slot 0 but has not yet written it, and p2's first
// dequeue has read back=2. One branch lets p0's write land before p2 scans
// slot 0 (dequeues return 1 then 2, forcing enq(1) before enq(2)); the other
// lets p2 scan first (dequeues return 2 then 1, forcing the opposite order).
// Since enq(2) is already complete at the fork, every prefix-closed
// linearization function must have committed an order there — and each
// branch contradicts one. (Refutation on a pruned tree is sound.)
func TestHWQueueNotStronglyLinearizable(t *testing.T) {
	prefix := []int{0, 0, 1, 1, 1, 2, 2}
	branchA := append(append([]int{}, prefix...), 0, 2, 2, 2, 2, 2)
	branchB := append(append([]int{}, prefix...), 2, 2, 0, 2, 2, 2)
	tree, err := sim.TreeFromSchedules(3, hwSetup, [][]int{branchA, branchB})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the two branches really produce opposite dequeue orders.
	orders := map[string]bool{}
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 {
			var resps string
			for _, ev := range trace {
				if ev.Kind == sim.EventReturn && ev.OpID >= 2 {
					resps += ev.Resp
				}
			}
			orders[resps] = true
		}
		return true
	})
	if !orders["12"] || !orders["21"] {
		t.Fatalf("branches do not force opposite dequeue orders: %v", orders)
	}
	res := history.CheckStrongLin(tree, spec.Queue{}, nil)
	if res.Ok {
		t.Fatal("Herlihy–Wing queue accepted as strongly linearizable; Theorem 17 says it cannot be")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample reported")
	}
	t.Logf("counterexample: %s", res.Counterexample)
}

// Reproduction finding (discovered by the randomized stress harness, pinned
// here deterministically): interpreting a fruitless single scan as an
// "empty" response is NOT linearizable. Witness with 4 processes:
//
//   - p0's enq(1) completes into slot 0.
//   - p1's enq(2) reserves slot 1 and crashes before writing.
//   - p2's dequeue reads back=2 and pauses.
//   - p3 completes enq(3) into slot 2 (beyond p2's cutoff!), then dequeues:
//     its scan takes the 1 from slot 0.
//   - p2 resumes: slot 0 empty (taken), slot 1 empty (crashed) -> "empty".
//
// But enq(1) completed before p2's dequeue began, enq(3) completed before
// the deq that removed 1 began, and 3 is never removed: the queue is
// non-empty throughout p2's dequeue. No linearization exists.
func TestHWQueueBoundedEmptinessUnsound(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		q := NewHWQueue(w, "q", 4)
		return []sim.Program{
			{opEnq(q, 1)},
			{opEnq(q, 2)},
			{opDeqBounded(q)},
			{opEnq(q, 3), opDeqBounded(q)},
		}
	}
	sched := []int{
		0, 0, 0, // p0: enq(1) complete (slot 0)
		1, 1, // p1: enq(2) reserves slot 1; CRASH before write
		2, 2, // p2: deq invoke + back-read (=2)
		3, 3, 3, // p3: enq(3) complete (slot 2)
		3, 3, 3, // p3: deq invoke + back-read(3) + swap slot0 -> 1
		2, 2, // p2: swap slot0 (empty), swap slot1 (empty) -> "empty"
	}
	exec, err := sim.Run(4, setup, sched)
	if err != nil {
		t.Fatal(err)
	}
	resps := exec.Responses()
	if resps[2] != spec.RespEmpty {
		t.Fatalf("p2's dequeue = %s, want empty (schedule drift)", resps[2])
	}
	if resps[4] != "1" {
		t.Fatalf("p3's dequeue = %s, want 1 (schedule drift)", resps[4])
	}
	h := history.FromExecution(exec)
	if res := history.CheckLinearizable(h, spec.Queue{}); res.Ok {
		t.Fatalf("single-scan emptiness accepted; this history has no linearization:\n%s",
			history.RenderTimeline(h))
	}
}

func TestAACMaxRegisterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewAACMaxRegister(w, "aac", 4)
	th := sim.SoloThread(0)
	if got := m.ReadMax(th); got != 0 {
		t.Fatalf("initial ReadMax = %d", got)
	}
	for _, v := range []int64{5, 3, 11, 7} {
		m.WriteMax(th, v)
	}
	if got := m.ReadMax(th); got != 11 {
		t.Fatalf("ReadMax = %d, want 11", got)
	}
	m.WriteMax(th, 15)
	if got := m.ReadMax(th); got != 15 {
		t.Fatalf("ReadMax = %d, want 15", got)
	}
}

func TestAACMaxRegisterDomainCheck(t *testing.T) {
	m := NewAACMaxRegister(sim.NewSoloWorld(), "aac", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain write did not panic")
		}
	}()
	m.WriteMax(sim.SoloThread(0), 8)
}

// The AAC max register is linearizable on every interleaving of a bounded
// configuration (its strong-linearizability status is out of scope here; the
// paper's Theorem 1 object is the strongly-linearizable alternative).
func TestAACMaxRegisterLinearizable(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewAACMaxRegister(w, "aac", 2)
		mkW := func(v int64) sim.Op {
			return sim.Op{
				Name: spec.MkOp(spec.MethodWriteMax, v).String(),
				Spec: spec.MkOp(spec.MethodWriteMax, v),
				Run: func(t prim.Thread) string {
					m.WriteMax(t, v)
					return spec.RespOK
				},
			}
		}
		mkR := func() sim.Op {
			return sim.Op{
				Name: "rmax()",
				Spec: spec.MkOp(spec.MethodReadMax),
				Run:  func(t prim.Thread) string { return spec.RespInt(m.ReadMax(t)) },
			}
		}
		return []sim.Program{
			{mkW(2), mkR()},
			{mkW(1), mkR()},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 {
			h := history.FromEvents(tree.Procs, tree.Ops, trace)
			if res := history.CheckLinearizable(h, spec.MaxRegister{}); !res.Ok {
				t.Fatalf("non-linearizable leaf: %s", h.String())
			}
		}
		return true
	})
}

func TestUniversalSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	q := NewCASQueue(w, "q", 2)
	th := sim.SoloThread(0)
	if got := q.Dequeue(th); got != spec.RespEmpty {
		t.Fatalf("dequeue on empty = %s", got)
	}
	q.Enqueue(th, 4)
	q.Enqueue(th, 5)
	if got := q.Dequeue(th); got != "4" {
		t.Fatalf("dequeue = %s, want 4", got)
	}

	s := NewCASStack(w, "st", 2)
	s.Push(th, 1)
	s.Push(th, 2)
	if got := s.Pop(th); got != "2" {
		t.Fatalf("pop = %s, want 2", got)
	}
}

// The CAS universal queue IS strongly linearizable — the comparator pole of
// E-FIG1 and the object that makes the Lemma 12 reduction solve consensus.
func TestCASQueueStronglyLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		q := NewCASQueue(w, "q", 3)
		enq := func(v int64) sim.Op {
			return sim.Op{
				Name: spec.MkOp(spec.MethodEnq, v).String(),
				Spec: spec.MkOp(spec.MethodEnq, v),
				Run: func(t prim.Thread) string {
					q.Enqueue(t, v)
					return spec.RespOK
				},
			}
		}
		deq := sim.Op{
			Name: "deq()",
			Spec: spec.MkOp(spec.MethodDeq),
			Run:  func(t prim.Thread) string { return q.Dequeue(t) },
		}
		return []sim.Program{
			{enq(1)},
			{enq(2)},
			{deq},
		}
	}
	v, err := history.Verify(3, setup, spec.Queue{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable || !v.StrongLin.Ok {
		t.Fatalf("CAS queue verdict: lin=%v sl=%v (%v)", v.Linearizable, v.StrongLin.Ok, v.StrongLin.Counterexample)
	}
}

func TestUniversalRejectsIllegalOp(t *testing.T) {
	u := NewUniversal(sim.NewSoloWorld(), "u", spec.Queue{}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("illegal op did not panic")
		}
	}()
	u.Apply(sim.SoloThread(0), spec.MkOp("bogus"))
}
