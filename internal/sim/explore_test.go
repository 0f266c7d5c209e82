package sim

import (
	"fmt"
	"reflect"
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
// replay's whole event array, kept alive for the life of the tree. Both
// builders graft through the same code, so both are checked.
func TestExploreNodesOwnTheirEvents(t *testing.T) {
	explored, err := Explore(2, twoRegSetup, nil)
	if err != nil {
		t.Fatal(err)
	}
	spanned, err := TreeFromSchedules(2, twoRegSetup, [][]int{{0, 0, 0, 0, 1, 1, 1, 1}, {0, 1, 0, 1, 0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Tree{"Explore": explored, "TreeFromSchedules": spanned} {
		tree.Walk(func(n *Node, _ []Event) bool {
			if cap(n.Events) != len(n.Events) {
				t.Fatalf("%s: node (proc %d) events len %d cap %d: batch shares the replay's array", name, n.Proc, len(n.Events), cap(n.Events))
			}
			return true
		})
	}
}

// exploreReference is the per-node explorer Explore replaced, kept as the
// oracle for TestExploreMatchesReference: it replays the whole schedule from
// the root for every node.
func exploreReference(procs int, setup Setup, opts *ExploreOptions) (*Tree, error) {
	o := opts.withDefaults()

	first, err := Run(procs, setup, nil)
	if err != nil {
		return nil, fmt.Errorf("explore root: %w", err)
	}
	tree := &Tree{
		Procs: procs,
		Ops:   first.Ops,
		Root: &Node{
			Proc:     -1,
			Enabled:  first.Enabled[0],
			Complete: first.Complete,
		},
		Nodes: 1,
	}
	x := &refExplorer{procs: procs, setup: setup, opts: o, tree: tree}
	if err := x.dfs(tree.Root, nil); err != nil {
		return nil, err
	}
	return tree, nil
}

type refExplorer struct {
	procs int
	setup Setup
	opts  ExploreOptions
	tree  *Tree
}

func (x *refExplorer) dfs(n *Node, schedule []int) error {
	if n.Complete || len(n.Enabled) == 0 {
		x.tree.Leaves++
		return nil
	}
	if len(schedule) >= x.opts.MaxDepth {
		x.tree.Truncated = true
		return nil
	}
	for _, p := range n.Enabled {
		if x.tree.Nodes >= x.opts.MaxNodes {
			x.tree.Truncated = true
			return nil
		}
		sched := make([]int, len(schedule)+1)
		copy(sched, schedule)
		sched[len(schedule)] = p

		exec, err := Run(x.procs, x.setup, sched)
		if err != nil {
			return fmt.Errorf("explore schedule %v: %w", sched, err)
		}
		// Copy the batch: a subslice would pin the replay's whole event
		// array, so every node would hold its entire path's trace.
		child := &Node{
			Proc:     p,
			Events:   append([]Event(nil), exec.Batch(len(sched)-1)...),
			Enabled:  exec.Enabled[len(sched)],
			Complete: exec.Complete,
		}
		n.Children = append(n.Children, child)
		x.tree.Nodes++
		if err := x.dfs(child, sched); err != nil {
			return err
		}
	}
	return nil
}

// awaitSetup: p0 raises a flag, then awaits r == 1; p1 writes r = 1 only if
// it read the flag still down. Every execution where p0's flag lands first
// deadlocks: a leaf with no enabled process that is not Complete.
func awaitSetup(w *World) []Program {
	flag := w.Register("flag", 0)
	r := w.AnyRegister("r", 0)
	return []Program{
		{{Name: "raise-then-await", Spec: spec.MkOp("await"), Run: func(t prim.Thread) string {
			flag.Write(t, 1)
			w.AwaitAny(t, r, func(v any) bool { return v == 1 })
			return spec.RespOK
		}}},
		{{Name: "release-if-down", Spec: spec.MkOp("release"), Run: func(t prim.Thread) string {
			if flag.Read(t) == 0 {
				r.WriteAny(t, 1)
			}
			return spec.RespOK
		}}},
	}
}

// threeProcSetup: three processes with one-step operations, so every step's
// batch also carries the operation's return.
func threeProcSetup(w *World) []Program {
	r := w.Register("r", 0)
	write := func(v int64) Op {
		return Op{Name: "write", Spec: spec.MkOp("write"), Run: func(t prim.Thread) string {
			r.Write(t, v)
			return spec.RespOK
		}}
	}
	read := Op{Name: "read", Spec: spec.MkOp("read"), Run: func(t prim.Thread) string {
		return spec.RespInt(r.Read(t))
	}}
	return []Program{{write(1)}, {write(2), read}, {read}}
}

// panicSetup: p1 panics on its second step once p0 has written.
func panicSetup(w *World) []Program {
	r := w.Register("r", 0)
	return []Program{
		{{Name: "write", Spec: spec.MkOp("write"), Run: func(t prim.Thread) string {
			r.Write(t, 1)
			return spec.RespOK
		}}},
		{{Name: "read-twice", Spec: spec.MkOp("read"), Run: func(t prim.Thread) string {
			r.Read(t)
			if r.Read(t) == 1 {
				panic("boom")
			}
			return spec.RespOK
		}}},
	}
}

// TestExploreMatchesReference pins that the once-per-leaf explorer builds
// the per-node explorer's tree node for node: the same Proc, Events,
// Enabled, Complete and child order everywhere, and the same Nodes, Leaves
// and Truncated — including when exploration is cut short, and the same
// error when a program panics.
func TestExploreMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		procs     int
		setup     Setup
		opts      *ExploreOptions
		truncated bool   // the reference stops at a bound
		deadlocks bool   // the reference has a leaf that is not Complete
		err       string // the error both explorers must fail with
	}{
		{"two-registers", 2, twoRegSetup, nil, false, false, ""},
		{"max-nodes", 2, twoRegSetup, &ExploreOptions{MaxNodes: 10}, true, false, ""},
		{"max-depth", 2, twoRegSetup, &ExploreOptions{MaxDepth: 3}, true, false, ""},
		{"await-deadlock", 2, awaitSetup, nil, false, true, ""},
		{"three-procs", 3, threeProcSetup, nil, false, false, ""},
		{"three-procs-max-nodes", 3, threeProcSetup, &ExploreOptions{MaxNodes: 100}, true, false, ""},
		{"panic", 2, panicSetup, nil, false, false, "explore schedule [0 0 1 1 1]: sim: process 1 panicked: boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := exploreReference(tc.procs, tc.setup, tc.opts)
			got, gotErr := Explore(tc.procs, tc.setup, tc.opts)
			if tc.err != "" || wantErr != nil || gotErr != nil {
				if wantErr == nil || wantErr.Error() != tc.err {
					t.Fatalf("reference error = %v, want %s", wantErr, tc.err)
				}
				if gotErr == nil || gotErr.Error() != tc.err {
					t.Fatalf("error = %v, want %s", gotErr, tc.err)
				}
				return
			}
			if want.Truncated != tc.truncated {
				t.Fatalf("reference truncated = %v, want %v", want.Truncated, tc.truncated)
			}
			deadlocks := false
			want.Walk(func(n *Node, _ []Event) bool {
				deadlocks = deadlocks || len(n.Children) == 0 && len(n.Enabled) == 0 && !n.Complete
				return true
			})
			if deadlocks != tc.deadlocks {
				t.Fatalf("reference deadlocks = %v, want %v", deadlocks, tc.deadlocks)
			}
			if got.Nodes != want.Nodes || got.Leaves != want.Leaves || got.Truncated != want.Truncated {
				t.Fatalf("nodes/leaves/truncated = %d/%d/%v, want %d/%d/%v",
					got.Nodes, got.Leaves, got.Truncated, want.Nodes, want.Leaves, want.Truncated)
			}
			if !reflect.DeepEqual(got.Ops, want.Ops) {
				t.Fatalf("ops = %v, want %v", got.Ops, want.Ops)
			}
			if err := sameTree(got.Root, want.Root, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func sameTree(got, want *Node, sched []int) error {
	if got.Proc != want.Proc || got.Complete != want.Complete ||
		!reflect.DeepEqual(got.Enabled, want.Enabled) || !reflect.DeepEqual(got.Events, want.Events) ||
		len(got.Children) != len(want.Children) {
		return fmt.Errorf("node at %v = {proc %d, enabled %v, complete %v, events %v, %d children}, want {proc %d, enabled %v, complete %v, events %v, %d children}",
			sched, got.Proc, got.Enabled, got.Complete, got.Events, len(got.Children),
			want.Proc, want.Enabled, want.Complete, want.Events, len(want.Children))
	}
	for i := range got.Children {
		if err := sameTree(got.Children[i], want.Children[i], append(sched[:len(sched):len(sched)], want.Children[i].Proc)); err != nil {
			return err
		}
	}
	return nil
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
