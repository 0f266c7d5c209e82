package baseline

import (
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

func opAfekUpdate(s *AfekSnapshot, v int64) sim.Op {
	return sim.Op{
		Name: "update(" + spec.RespInt(v) + ")",
		Spec: spec.MkOp(spec.MethodUpdate, -1, v), // component filled by proc at runtime
		Run: func(t prim.Thread) string {
			s.Update(t, v)
			return spec.RespOK
		},
	}
}

func opAfekScan(s *AfekSnapshot) sim.Op {
	return sim.Op{
		Name: "scan()",
		Spec: spec.MkOp(spec.MethodScan),
		Run:  func(t prim.Thread) string { return spec.RespVec(s.Scan(t)) },
	}
}

// fixComponents rewrites update specs so the component argument equals the
// invoking process (the single-writer convention the Snapshot spec needs).
func fixComponents(ops []sim.OpInfo) []sim.OpInfo {
	out := make([]sim.OpInfo, len(ops))
	copy(out, ops)
	for i := range out {
		if out[i].Spec.Method == spec.MethodUpdate && out[i].Spec.Args[0] == -1 {
			out[i].Spec = spec.MkOp(spec.MethodUpdate, int64(out[i].Proc), out[i].Spec.Args[1])
		}
	}
	return out
}

func TestAfekSnapshotSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewAfekSnapshot(w, "afek", 3)
	if got := spec.RespVec(s.Scan(sim.SoloThread(0))); got != "[0 0 0]" {
		t.Fatalf("initial scan = %s", got)
	}
	s.Update(sim.SoloThread(1), 7)
	s.Update(sim.SoloThread(2), 9)
	s.Update(sim.SoloThread(1), 8)
	if got := spec.RespVec(s.Scan(sim.SoloThread(0))); got != "[0 8 9]" {
		t.Fatalf("scan = %s", got)
	}
}

func afekSetup(w *sim.World) []sim.Program {
	s := NewAfekSnapshot(w, "afek", 3)
	return []sim.Program{
		{opAfekScan(s)},
		{opAfekUpdate(s, 1)},
		{opAfekUpdate(s, 2), opAfekUpdate(s, 3)},
	}
}

// rep returns n copies of p.
func rep(p, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p
	}
	return out
}

func cat(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// E-ADV/E-T17 companion: the Afek et al. snapshot is NOT strongly
// linearizable (Golab–Higham–Woelfel's original example).
//
// Witness: the scanner p0 performs its first collect; p2 completes
// update(2), then runs update(3) up to (but not including) its register
// write — its embedded scan saw [0 0 2]; p1 completes update(1); p0 performs
// its second collect (dirty). At this node update(1) is COMPLETE and the
// scan is pending. Branch A: p2 stalls; p0's third collect is clean and the
// scan returns [0 1 2] — forcing scan AFTER update(1). Branch B: p2's write
// lands; p0's third collect observes p2 moving a second time, so the scan
// borrows p2's embedded view [0 0 2] — forcing scan BEFORE update(1). Any
// prefix-closed linearization function has already committed the order at
// the fork; each branch refutes one choice. (Refutation on a pruned tree is
// sound.)
func TestAfekSnapshotNotStronglyLinearizable(t *testing.T) {
	prefix := cat(
		rep(0, 4), // p0: invoke scan + collect1 (R0,R1,R2 all initial)
		rep(2, 9), // p2: update(2) completes (6 scan reads, own read, write)
		rep(2, 8), // p2: update(3) up to BEFORE its write (embedded view [0 0 2])
		rep(1, 9), // p1: update(1) completes
		rep(0, 3), // p0: collect2 — observes R1 and R2 moved once
	)
	branchA := cat(prefix, rep(0, 3))            // p0: collect3, clean -> [0 1 2]
	branchB := cat(prefix, rep(2, 1), rep(0, 3)) // p2 writes; p0: collect3 -> borrow [0 0 2]

	tree, err := sim.TreeFromSchedules(3, afekSetup, [][]int{branchA, branchB})
	if err != nil {
		t.Fatal(err)
	}
	tree.Ops = fixComponents(tree.Ops)

	// Sanity: the two branches really produce the two incompatible views.
	views := map[string]bool{}
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 {
			for _, ev := range trace {
				if ev.Kind == sim.EventReturn && ev.OpID == 0 {
					views[ev.Resp] = true
				}
			}
		}
		return true
	})
	if !views["[0 1 2]"] || !views["[0 0 2]"] {
		t.Fatalf("branches do not produce the expected views: %v", views)
	}

	// Each leaf is linearizable on its own...
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 {
			h := history.FromEvents(tree.Procs, tree.Ops, trace)
			if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
				t.Fatalf("leaf not linearizable: %s", h.String())
			}
		}
		return true
	})
	// ... but no prefix-closed linearization function covers both branches.
	res := history.CheckStrongLin(tree, spec.Snapshot{}, nil)
	if res.Ok {
		t.Fatal("Afek snapshot accepted as strongly linearizable; the GHW counterexample says it cannot be")
	}
	t.Logf("counterexample: %s", res.Counterexample)
}

func TestAfekSnapshotLinearizableSmallConfig(t *testing.T) {
	// Exhaustive check of a 2-process configuration: one update, one scan.
	setup := func(w *sim.World) []sim.Program {
		s := NewAfekSnapshot(w, "afek", 2)
		return []sim.Program{
			{opAfekUpdate(s, 5)},
			{opAfekScan(s)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Truncated {
		t.Fatal("tree truncated")
	}
	tree.Ops = fixComponents(tree.Ops)
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if len(n.Children) == 0 {
			h := history.FromEvents(tree.Procs, tree.Ops, trace)
			if res := history.CheckLinearizable(h, spec.Snapshot{}); !res.Ok {
				t.Fatalf("non-linearizable leaf: %s", h.String())
			}
		}
		return true
	})
}
