package sim

import "fmt"

// Node is one vertex of an execution tree: the state reached after granting
// the schedule that labels the path from the root.
type Node struct {
	// Proc is the process granted on the edge leading here (-1 at the root).
	Proc int
	// Events are the trace events appended by that grant (an invocation, or
	// a step possibly followed by returns).
	Events []Event
	// Enabled is the sorted set of schedulable processes at this node.
	Enabled []int
	// Complete reports whether every program has finished here.
	Complete bool
	// Children are the successor nodes, in Enabled order.
	Children []*Node
}

// Tree is the complete execution tree of a bounded configuration: every
// interleaving of the programs' steps. Strong linearizability is a property
// of exactly this tree (a prefix-closed linearization function assigns a
// linearization to every node, monotonically along every path).
type Tree struct {
	Procs int
	Ops   []OpInfo
	Root  *Node
	// Nodes and Leaves count the tree's vertices and maximal executions.
	Nodes  int
	Leaves int
	// Truncated reports that exploration hit MaxNodes or MaxDepth; verdicts
	// on a truncated tree cover only the explored prefix.
	Truncated bool
}

// ExploreOptions bound the exploration.
type ExploreOptions struct {
	// MaxNodes caps the number of tree nodes (default 400000).
	MaxNodes int
	// MaxDepth caps the schedule length (default 4096); it guards against
	// non-terminating programs.
	MaxDepth int
}

func (o *ExploreOptions) withDefaults() ExploreOptions {
	out := ExploreOptions{MaxNodes: 400000, MaxDepth: 4096}
	if o != nil {
		if o.MaxNodes > 0 {
			out.MaxNodes = o.MaxNodes
		}
		if o.MaxDepth > 0 {
			out.MaxDepth = o.MaxDepth
		}
	}
	return out
}

// Explore enumerates every interleaving of the configuration's primitive
// steps by stateless replay and returns the execution tree.
func Explore(procs int, setup Setup, opts *ExploreOptions) (*Tree, error) {
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
	x := &explorer{procs: procs, setup: setup, opts: o, tree: tree}
	if err := x.dfs(tree.Root, nil); err != nil {
		return nil, err
	}
	return tree, nil
}

type explorer struct {
	procs int
	setup Setup
	opts  ExploreOptions
	tree  *Tree
}

func (x *explorer) dfs(n *Node, schedule []int) error {
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

// TreeFromSchedules builds the execution tree spanned by the given
// schedules: the union of their paths, merged on common prefixes. Each
// schedule is replayed independently (replay is deterministic, so shared
// prefixes agree).
//
// The result is a PRUNED tree — a subtree of the full interleaving tree with
// some children omitted. Refuting strong linearizability on a pruned tree is
// sound (a prefix-closed linearization function for the full tree restricts
// to one for any subtree), and it sidesteps exploring configurations whose
// full trees are too large; verifying on a pruned tree proves nothing.
func TreeFromSchedules(procs int, setup Setup, schedules [][]int) (*Tree, error) {
	if len(schedules) == 0 {
		return nil, fmt.Errorf("sim: TreeFromSchedules needs at least one schedule")
	}
	first, err := Run(procs, setup, schedules[0])
	if err != nil {
		return nil, err
	}
	tree := &Tree{
		Procs: procs,
		Ops:   first.Ops,
		Root: &Node{
			Proc:    -1,
			Enabled: first.Enabled[0],
		},
		Nodes: 1,
	}
	for _, sched := range schedules {
		exec, err := Run(procs, setup, sched)
		if err != nil {
			return nil, fmt.Errorf("sim: schedule %v: %w", sched, err)
		}
		cur := tree.Root
		for i, p := range sched {
			var child *Node
			for _, c := range cur.Children {
				if c.Proc == p {
					child = c
					break
				}
			}
			if child == nil {
				// A node with no enabled process is only Complete if every
				// program finished — conditional steps (World.AwaitAny) can
				// leave processes blocked with work outstanding.
				child = &Node{
					Proc:     p,
					Events:   exec.Batch(i),
					Enabled:  exec.Enabled[i+1],
					Complete: len(exec.Enabled[i+1]) == 0 && exec.Complete,
				}
				cur.Children = append(cur.Children, child)
				tree.Nodes++
			}
			cur = child
		}
	}
	// Count leaves.
	tree.Walk(func(n *Node, _ []Event) bool {
		if len(n.Children) == 0 {
			tree.Leaves++
		}
		return true
	})
	return tree, nil
}

// Walk visits every node of the tree in depth-first order, passing the
// cumulative event trace from the root. It stops early if fn returns false
// for a node (its subtree is skipped).
func (t *Tree) Walk(fn func(n *Node, trace []Event) bool) {
	var trace []Event
	var rec func(n *Node)
	rec = func(n *Node) {
		before := len(trace)
		trace = append(trace, n.Events...)
		if fn(n, trace) {
			for _, c := range n.Children {
				rec(c)
			}
		}
		trace = trace[:before]
	}
	rec(t.Root)
}
