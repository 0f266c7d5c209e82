package history

import (
	"fmt"
	"strings"
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// Synthetic execution trees let us unit-test the game checker against known
// verdicts independently of any real implementation.

func inv(proc, opID int) sim.Event {
	return sim.Event{Kind: sim.EventInvoke, Proc: proc, OpID: opID}
}

func step(proc, opID int, info string) sim.Event {
	return sim.Event{Kind: sim.EventStep, Proc: proc, OpID: opID, Info: info}
}

func ret(proc, opID int, resp string) sim.Event {
	return sim.Event{Kind: sim.EventReturn, Proc: proc, OpID: opID, Resp: resp}
}

func chain(events ...[]sim.Event) (*sim.Node, *sim.Node) {
	root := &sim.Node{Proc: -1}
	cur := root
	for _, evs := range events {
		child := &sim.Node{Proc: evs[0].Proc, Events: evs}
		cur.Children = []*sim.Node{child}
		cur = child
	}
	return root, cur
}

// oracleTree builds: both enqueues complete, then the tree BRANCHES into a
// dequeue returning 1 and a dequeue returning 2. No implementation behaves
// like this (a deterministic dequeue cannot return both), but it is the
// minimal witness that tree-branching forces commitment: any prefix-closed L
// must already order the enqueues before the branch, and each branch
// invalidates one order.
func oracleTree(branches ...string) *sim.Tree {
	// The two enqueues overlap (both invoked before either returns), so
	// either linearization order is a priori legal.
	root, mid := chain(
		[]sim.Event{inv(0, 0)},
		[]sim.Event{inv(1, 1)},
		[]sim.Event{step(0, 0, "s"), ret(0, 0, "ok")},
		[]sim.Event{step(1, 1, "s"), ret(1, 1, "ok")},
	)
	for _, resp := range branches {
		mid.Children = append(mid.Children, &sim.Node{
			Proc:   2,
			Events: []sim.Event{inv(2, 2), step(2, 2, "s"), ret(2, 2, resp)},
		})
	}
	return &sim.Tree{
		Procs: 3,
		Ops: []sim.OpInfo{
			{ID: 0, Proc: 0, Name: "enq(1)", Spec: spec.MkOp(spec.MethodEnq, 1)},
			{ID: 1, Proc: 1, Name: "enq(2)", Spec: spec.MkOp(spec.MethodEnq, 2)},
			{ID: 2, Proc: 2, Name: "deq()", Spec: spec.MkOp(spec.MethodDeq)},
		},
		Root: root,
	}
}

func TestStrongLinRejectsBranchForcedCommitment(t *testing.T) {
	res := CheckStrongLin(oracleTree("1", "2"), spec.Queue{}, nil)
	if res.Ok {
		t.Fatal("tree requiring incompatible commitments accepted")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample produced")
	}
	if !strings.Contains(res.Counterexample.String(), "enq") {
		t.Fatalf("uninformative counterexample: %s", res.Counterexample)
	}
	// The game plays on the sim tree itself: it counts the hand-built tree's
	// nodes (root, four chain nodes, two branches) and reads the stuck
	// node's schedule off its own DFS path.
	if res.Nodes != 7 {
		t.Fatalf("nodes = %d, want 7", res.Nodes)
	}
	if got := fmt.Sprint(res.Counterexample.Schedule); got != "[0 1 0 1]" {
		t.Fatalf("counterexample schedule = %s, want [0 1 0 1]", got)
	}
}

func TestStrongLinAcceptsSingleBranch(t *testing.T) {
	for _, resp := range []string{"1", "2"} {
		res := CheckStrongLin(oracleTree(resp), spec.Queue{}, nil)
		if !res.Ok {
			t.Fatalf("single-branch tree (deq=%s) rejected: %v", resp, res.Counterexample)
		}
	}
}

func TestStrongLinLeafHistoriesStillLinearizable(t *testing.T) {
	// Sanity: each branch of the rejected tree is individually linearizable;
	// the failure is purely a prefix-closure failure.
	tree := oracleTree("1", "2")
	leaves := 0
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 {
			leaves++
			h := FromEvents(tree.Procs, tree.Ops, trace)
			if res := CheckLinearizable(h, spec.Queue{}); !res.Ok {
				t.Fatalf("leaf history not linearizable: %s", h.String())
			}
		}
		return true
	})
	if leaves != 2 {
		t.Fatalf("leaves = %d, want 2", leaves)
	}
}

// pendingEagerTree models the Algorithm-2 take/EMPTY situation: p0's deq has
// taken the step that determines it returns empty, but has not returned;
// then p1's enq(1) completes; then p0 returns empty. A prefix-closed L must
// linearize the PENDING deq (with response empty) no later than the enq.
func pendingEagerTree() *sim.Tree {
	root, _ := chain(
		[]sim.Event{inv(0, 0)},
		[]sim.Event{step(0, 0, "determining-read")},
		[]sim.Event{inv(1, 1), step(1, 1, "s"), ret(1, 1, "ok")},
		[]sim.Event{step(0, 0, "local-exit"), ret(0, 0, spec.RespEmpty)},
	)
	return &sim.Tree{
		Procs: 2,
		Ops: []sim.OpInfo{
			{ID: 0, Proc: 0, Name: "deq()", Spec: spec.MkOp(spec.MethodDeq)},
			{ID: 1, Proc: 1, Name: "enq(1)", Spec: spec.MkOp(spec.MethodEnq, 1)},
		},
		Root: root,
	}
}

func TestStrongLinLinearizesPendingOpsEagerly(t *testing.T) {
	res := CheckStrongLin(pendingEagerTree(), spec.Queue{}, nil)
	if !res.Ok {
		t.Fatalf("eager pending linearization not found: %v", res.Counterexample)
	}
}

// pendingWrongResponseTree is the same shape, but the deq eventually returns
// "1" along one branch and "empty" along another — committing to either
// pending response fails the other branch, and not committing fails the
// empty branch. Not strongly linearizable.
func pendingWrongResponseTree() *sim.Tree {
	root, mid := chain(
		[]sim.Event{inv(0, 0)},
		[]sim.Event{step(0, 0, "read")},
		[]sim.Event{inv(1, 1), step(1, 1, "s"), ret(1, 1, "ok")},
	)
	mid.Children = []*sim.Node{
		{Proc: 0, Events: []sim.Event{step(0, 0, "x"), ret(0, 0, spec.RespEmpty)}},
		{Proc: 0, Events: []sim.Event{step(0, 0, "x"), ret(0, 0, "1")}},
	}
	return &sim.Tree{
		Procs: 2,
		Ops: []sim.OpInfo{
			{ID: 0, Proc: 0, Name: "deq()", Spec: spec.MkOp(spec.MethodDeq)},
			{ID: 1, Proc: 1, Name: "enq(1)", Spec: spec.MkOp(spec.MethodEnq, 1)},
		},
		Root: root,
	}
}

func TestStrongLinPendingCommitmentConflict(t *testing.T) {
	res := CheckStrongLin(pendingWrongResponseTree(), spec.Queue{}, nil)
	if res.Ok {
		t.Fatal("conflicting pending commitments accepted")
	}
}

// realTimeTree checks that extensions respect real-time order: op A
// completes strictly before op B is invoked, so B can never be linearized
// before A.
func TestStrongLinRespectsRealTime(t *testing.T) {
	// p0: enq(1) completes. p1: deq() then returns empty — illegal, since
	// the deq started after enq(1) completed.
	root, _ := chain(
		[]sim.Event{inv(0, 0), step(0, 0, "s"), ret(0, 0, "ok")},
		[]sim.Event{inv(1, 1), step(1, 1, "s"), ret(1, 1, spec.RespEmpty)},
	)
	tree := &sim.Tree{
		Procs: 2,
		Ops: []sim.OpInfo{
			{ID: 0, Proc: 0, Name: "enq(1)", Spec: spec.MkOp(spec.MethodEnq, 1)},
			{ID: 1, Proc: 1, Name: "deq()", Spec: spec.MkOp(spec.MethodDeq)},
		},
		Root: root,
	}
	if res := CheckStrongLin(tree, spec.Queue{}, nil); res.Ok {
		t.Fatal("real-time violation accepted")
	}
}

// atomicQueueSetup builds programs whose every operation is a single
// scheduler step applying the sequential queue directly — an atomic object.
// (Local computation following a primitive step executes atomically with it
// under the cooperative scheduler, so "step then mutate" is one step.)
// Atomic objects are strongly linearizable by definition; this is the
// checker's soundness smoke test on real explored trees.
func atomicQueueSetup(w *sim.World) []sim.Program {
	type cell struct{ items []int64 }
	st := &cell{}
	tick := w.Register("tick", 0) // one shared object so every op is one step

	enq := func(v int64) sim.Op {
		return sim.Op{
			Name: "enq",
			Spec: spec.MkOp(spec.MethodEnq, v),
			Run: func(t prim.Thread) string {
				tick.Write(t, 0)
				st.items = append(st.items, v)
				return spec.RespOK
			},
		}
	}
	deq := func() sim.Op {
		return sim.Op{
			Name: "deq",
			Spec: spec.MkOp(spec.MethodDeq),
			Run: func(t prim.Thread) string {
				tick.Write(t, 0)
				if len(st.items) == 0 {
					return spec.RespEmpty
				}
				v := st.items[0]
				st.items = st.items[1:]
				return spec.RespInt(v)
			},
		}
	}
	return []sim.Program{
		{enq(1)},
		{enq(2)},
		{deq(), deq()},
	}
}

func TestStrongLinAcceptsAtomicObjectTree(t *testing.T) {
	tree, err := sim.Explore(3, atomicQueueSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Truncated {
		t.Fatal("tree truncated")
	}
	res := CheckStrongLin(tree, spec.Queue{}, nil)
	if !res.Ok {
		t.Fatalf("atomic queue rejected: %v", res.Counterexample)
	}
	if res.Aborted {
		t.Fatal("search aborted")
	}
}

func TestStrongLinAbortsOnTinyStateBudget(t *testing.T) {
	tree, err := sim.Explore(3, atomicQueueSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := CheckStrongLin(tree, spec.Queue{}, &StrongLinOptions{MaxStates: 5})
	if !res.Aborted || res.Ok {
		t.Fatalf("want aborted result, got %+v", res)
	}
}
