package sim

import (
	"testing"

	"stronglin/internal/prim"
	"stronglin/internal/spec"
)

func TestTreeFromSchedulesMergesCommonPrefix(t *testing.T) {
	full := []int{0, 0, 0, 0, 1, 1, 1, 1}
	alt := []int{0, 0, 1, 1, 0, 0, 1, 1}
	tree, err := TreeFromSchedules(2, twoRegSetup, [][]int{full, alt})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves != 2 {
		t.Fatalf("leaves = %d, want 2", tree.Leaves)
	}
	// Shared prefix of length 2 → root + 2 shared nodes + 2×6 distinct.
	if tree.Nodes != 1+2+12 {
		t.Fatalf("nodes = %d, want 15", tree.Nodes)
	}
	// Both leaves complete.
	complete := 0
	tree.Walk(func(n *Node, _ []Event) bool {
		if len(n.Children) == 0 && n.Complete {
			complete++
		}
		return true
	})
	if complete != 2 {
		t.Fatalf("complete leaves = %d, want 2", complete)
	}
}

func TestTreeFromSchedulesPrefixSchedule(t *testing.T) {
	// A schedule that is a strict prefix of another shares all its nodes.
	long := []int{0, 0, 0, 0}
	short := []int{0, 0}
	tree, err := TreeFromSchedules(2, twoRegSetup, [][]int{long, short})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes != 5 {
		t.Fatalf("nodes = %d, want 5 (root + 4 chain)", tree.Nodes)
	}
	if tree.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1", tree.Leaves)
	}
}

func TestTreeFromSchedulesRejectsEmpty(t *testing.T) {
	if _, err := TreeFromSchedules(2, twoRegSetup, nil); err == nil {
		t.Fatal("want error for no schedules")
	}
}

func TestTreeFromSchedulesRejectsInvalidSchedule(t *testing.T) {
	if _, err := TreeFromSchedules(2, twoRegSetup, [][]int{{7}}); err == nil {
		t.Fatal("want error for disabled process")
	}
}

// TestExploreNodesOwnTheirEvents pins that each node holds only its own
// batch: a node whose Events had spare capacity would be a window into the
// replay's whole event array, kept alive for the life of the tree.
func TestExploreNodesOwnTheirEvents(t *testing.T) {
	tree, err := Explore(2, twoRegSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(n *Node, _ []Event) bool {
		if cap(n.Events) != len(n.Events) {
			t.Fatalf("node (proc %d) events len %d cap %d: batch shares the replay's array", n.Proc, len(n.Events), cap(n.Events))
		}
		return true
	})
}

func TestMarkLinPointFlagsCurrentStep(t *testing.T) {
	setup := func(w *World) []Program {
		r := w.Register("r", 0)
		return []Program{{
			{
				Name: "op",
				Spec: spec.MkOp("op"),
				Run: func(t prim.Thread) string {
					r.Read(t) // step 0: unmarked
					r.Write(t, 1)
					w.MarkLinPoint(t) // marks the write
					r.Read(t)         // step 2: unmarked
					return spec.RespOK
				},
			},
		}}
	}
	exec, err := Run(1, setup, []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var marked []string
	for _, ev := range exec.Events {
		if ev.LinPoint {
			marked = append(marked, ev.Info)
		}
	}
	if len(marked) != 1 || marked[0] != "r.write(1)" {
		t.Fatalf("marked steps = %v, want [r.write(1)]", marked)
	}
}

func TestMarkLinPointNoopInSoloWorld(t *testing.T) {
	w := NewSoloWorld()
	w.Register("r", 0)
	// Must not panic with no runner attached.
	w.MarkLinPoint(SoloThread(0))
}

func TestMarkLinPointBeforeAnyStepIsIgnored(t *testing.T) {
	setup := func(w *World) []Program {
		r := w.Register("r", 0)
		return []Program{{
			{
				Name: "op",
				Spec: spec.MkOp("op"),
				Run: func(t prim.Thread) string {
					w.MarkLinPoint(t) // no step taken yet: ignored
					r.Read(t)
					return spec.RespOK
				},
			},
		}}
	}
	exec, err := Run(1, setup, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range exec.Events {
		if ev.LinPoint {
			t.Fatalf("unexpected lin point on %v", ev)
		}
	}
}

func TestMarkLinPointDoesNotLeakAcrossOps(t *testing.T) {
	// op2 marks before taking any of ITS steps: the mark must not land on
	// op1's last step.
	setup := func(w *World) []Program {
		r := w.Register("r", 0)
		op1 := Op{
			Name: "op1",
			Spec: spec.MkOp("op1"),
			Run: func(t prim.Thread) string {
				r.Write(t, 1)
				return spec.RespOK
			},
		}
		op2 := Op{
			Name: "op2",
			Spec: spec.MkOp("op2"),
			Run: func(t prim.Thread) string {
				w.MarkLinPoint(t) // premature: must be ignored
				r.Write(t, 2)
				return spec.RespOK
			},
		}
		return []Program{{op1, op2}}
	}
	exec, err := Run(1, setup, []int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range exec.Events {
		if ev.LinPoint {
			t.Fatalf("premature mark landed on %v", ev)
		}
	}
}
