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
//
// Explore builds it with one replay per leaf; TreeFromSchedules builds a
// pruned subtree from one replay per given schedule. Both record each
// replayed path through the same graft.
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
//
// It replays once per leaf. Each run replays the schedule of a node on the
// current path, grants the node's next untried process, then keeps granting
// the first enabled process until it reaches a leaf (or a MaxDepth/MaxNodes
// bound); graft records every node of that path from the one execution. The
// next run branches off the deepest node on the path with an untried
// process, so nodes are created in depth-first preorder, children in
// Enabled order.
func Explore(procs int, setup Setup, opts *ExploreOptions) (*Tree, error) {
	o := opts.withDefaults()
	tree := &Tree{Procs: procs}
	// path holds the nodes from the root to the node the next run branches
	// off; the next child of a node n is n.Enabled[len(n.Children)].
	var path []*Node
	var sched []int
	for {
		sched = sched[:0]
		if len(path) > 0 {
			for _, n := range path[1:] {
				sched = append(sched, n.Proc)
			}
			at := path[len(path)-1]
			sched = append(sched, at.Enabled[len(at.Children)])
		}
		// Grant at most MaxDepth steps, and create at most MaxNodes nodes
		// in all (the first run also creates the root).
		depth := max(len(path)-1, 0)
		limit := min(o.MaxDepth, depth+o.MaxNodes-max(tree.Nodes, 1))
		exec, err := RunPolicy(procs, setup, func(v PolicyView) int {
			if v.Step == len(sched) {
				sched = append(sched, v.Enabled[0])
			}
			return sched[v.Step]
		}, limit)
		if err != nil {
			if len(sched) == 0 {
				return nil, fmt.Errorf("explore root: %w", err)
			}
			return nil, fmt.Errorf("explore schedule %v: %w", sched, err)
		}
		path = tree.graft(exec, path)

		if last := path[len(path)-1]; len(last.Enabled) == 0 {
			tree.Leaves++
		} else if len(path)-1 >= o.MaxDepth {
			tree.Truncated = true
		}
		// Back up to the deepest node with an untried child.
		for len(path) > 0 {
			n := path[len(path)-1]
			if len(n.Children) < len(n.Enabled) && len(path)-1 < o.MaxDepth {
				break
			}
			path = path[:len(path)-1]
		}
		if len(path) == 0 {
			return tree, nil
		}
		if tree.Nodes >= o.MaxNodes {
			tree.Truncated = true
			return tree, nil
		}
	}
}

// graft records exec's path in the tree. path holds the nodes exec's
// schedule passes through from the root, as far as the caller knows them
// (none in an empty tree); graft appends the rest, down to the node after
// the last grant, and returns the extended path. Nodes the schedule shares
// with earlier paths are reused; each new node copies its batch, since a
// subslice would pin the execution's whole event array and so every node
// would hold its entire path's trace.
func (t *Tree) graft(exec *Execution, path []*Node) []*Node {
	if t.Root == nil {
		t.Ops = exec.Ops
		t.Root = &Node{Proc: -1, Enabled: exec.Enabled[0], Complete: len(exec.Enabled[0]) == 0 && exec.Complete}
		t.Nodes = 1
	}
	if len(path) == 0 {
		path = append(path, t.Root)
	}
	at := path[len(path)-1]
	for i := len(path) - 1; i < len(exec.Schedule); i++ {
		p := exec.Schedule[i]
		var child *Node
		for _, c := range at.Children {
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
				Events:   append([]Event(nil), exec.Batch(i)...),
				Enabled:  exec.Enabled[i+1],
				Complete: len(exec.Enabled[i+1]) == 0 && exec.Complete,
			}
			at.Children = append(at.Children, child)
			t.Nodes++
		}
		path = append(path, child)
		at = child
	}
	return path
}

// TreeFromSchedules builds the execution tree spanned by the given
// schedules: the union of their paths, merged on common prefixes. Each
// schedule is replayed independently and grafted onto the tree (replay is
// deterministic, so shared prefixes agree).
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
	tree := &Tree{Procs: procs}
	for _, sched := range schedules {
		exec, err := Run(procs, setup, sched)
		if err != nil {
			return nil, fmt.Errorf("sim: schedule %v: %w", sched, err)
		}
		tree.graft(exec, nil)
	}
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
