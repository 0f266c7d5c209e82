package history

import (
	"fmt"
	"strconv"
	"strings"

	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// StrongLinResult is the outcome of a strong-linearizability check.
type StrongLinResult struct {
	// Ok reports whether a prefix-closed linearization function exists for
	// the whole execution tree.
	Ok bool
	// Nodes is the number of tree nodes examined.
	Nodes int
	// States is the number of distinct (node, linearization) game positions
	// memoised.
	States int
	// Aborted reports that the search exceeded MaxStates; the verdict is
	// then meaningless.
	Aborted bool
	// Counterexample describes the deepest stuck position when !Ok: a
	// reachable execution prefix and an inherited linearization that cannot
	// be extended consistently into some child.
	Counterexample *SLCounterexample
}

// SLCounterexample pinpoints a failure of strong linearizability.
type SLCounterexample struct {
	// Schedule reaches the stuck node from the root.
	Schedule []int
	// History is the rendered history at the stuck node.
	History string
	// Lin is the inherited linearization that cannot be extended.
	Lin []LinEntry
	// ChildEvents are the events of the unservable child edge.
	ChildEvents []sim.Event
}

func (c *SLCounterexample) String() string {
	parts := make([]string, len(c.Lin))
	for i, e := range c.Lin {
		parts[i] = fmt.Sprintf("#%d=%s", e.OpID, e.Resp)
	}
	evs := make([]string, len(c.ChildEvents))
	for i, e := range c.ChildEvents {
		evs[i] = e.String()
	}
	return fmt.Sprintf("schedule %v, history {%s}, lin [%s], stuck on child events [%s]",
		c.Schedule, c.History, strings.Join(parts, " "), strings.Join(evs, " "))
}

// StrongLinOptions bound the game search.
type StrongLinOptions struct {
	// MaxStates caps memoised game positions (default 4,000,000).
	MaxStates int
}

// CheckStrongLin decides strong linearizability of the implementation whose
// complete execution tree is given, against the specification.
//
// Strong linearizability requires a function L mapping every execution to a
// linearization such that L(prefix) is a prefix of L(extension). On the
// bounded tree this is a game: at every node the checker owns a
// linearization of the node's history; for each child it must extend that
// linearization (appending completed and, possibly, pending operations) into
// a linearization of the child's history, and win recursively. The
// implementation is strongly linearizable on this tree iff the empty
// linearization wins at the root.
//
// The search handles the paper's subtle cases by construction: operations
// linearized at other processes' steps (Theorem 5's test&set losers), and
// operations that must be linearized eagerly while still pending, as soon as
// their return value is determined (Algorithm 2's empty-returning takes).
func CheckStrongLin(tree *sim.Tree, sp spec.Spec, opts *StrongLinOptions) StrongLinResult {
	maxStates := 4000000
	if opts != nil && opts.MaxStates > 0 {
		maxStates = opts.MaxStates
	}
	g := newSLGame(tree, maxStates)
	ok := g.visit(tree.Root, newLin(sp.Init(tree.Procs)))
	res := StrongLinResult{
		Ok:     ok && !g.aborted,
		Nodes:  countNodes(tree.Root),
		States: len(g.memo),
	}
	if g.aborted {
		res.Aborted = true
		res.Ok = false
		return res
	}
	if !ok {
		res.Counterexample = g.cex
	}
	return res
}

// linState is an immutable linearization-so-far: the chosen sequence with
// outcome responses, the specification state it induces, and the largest
// invocation timestamp among its members (for O(1) precedence checks).
type linState struct {
	entries   []LinEntry
	state     spec.State
	maxInvoke int
}

func newLin(init spec.State) *linState {
	return &linState{state: init, maxInvoke: -1}
}

func (l *linState) contains(opID int) (string, bool) {
	for _, e := range l.entries {
		if e.OpID == opID {
			return e.Resp, true
		}
	}
	return "", false
}

func (l *linState) append(opID int, out spec.Outcome, invokePos int) *linState {
	entries := make([]LinEntry, len(l.entries)+1)
	copy(entries, l.entries)
	entries[len(l.entries)] = LinEntry{OpID: opID, Resp: out.Resp}
	mi := l.maxInvoke
	if invokePos > mi {
		mi = invokePos
	}
	return &linState{entries: entries, state: out.Next, maxInvoke: mi}
}

func (l *linState) key() string {
	var b strings.Builder
	for _, e := range l.entries {
		b.WriteString(strconv.Itoa(e.OpID))
		b.WriteByte('=')
		b.WriteString(e.Resp)
		b.WriteByte('|')
	}
	b.WriteByte('#')
	b.WriteString(l.state.Key())
	return b.String()
}

// countNodes counts the nodes of the subtree rooted at n.
func countNodes(n *sim.Node) int {
	count := 1
	for _, c := range n.Children {
		count += countNodes(c)
	}
	return count
}

// slKey is a memoised game position: a node and the linearization held there.
type slKey struct {
	node *sim.Node
	lin  string
}

type slGame struct {
	numOps  int
	opSpecs []spec.Op

	// schedule is the DFS path from the root to the node being served: the
	// procs of its edges, so its length is that node's depth.
	schedule []int

	// Cumulative history arrays, maintained by apply/undo during the DFS.
	invokePos []int // -1 when not yet invoked
	retPos    []int // -1 when pending
	resps     []string
	pos       int // next event position

	memo      map[slKey]bool
	maxStates int
	aborted   bool

	cex      *SLCounterexample
	cexDepth int
}

func newSLGame(tree *sim.Tree, maxStates int) *slGame {
	g := &slGame{
		memo:      make(map[slKey]bool),
		maxStates: maxStates,
		cexDepth:  -1,
	}
	for _, oi := range tree.Ops {
		if oi.ID >= g.numOps {
			g.numOps = oi.ID + 1
		}
	}
	g.opSpecs = make([]spec.Op, g.numOps)
	for _, oi := range tree.Ops {
		g.opSpecs[oi.ID] = oi.Spec
	}
	g.invokePos = make([]int, g.numOps)
	g.retPos = make([]int, g.numOps)
	g.resps = make([]string, g.numOps)
	for i := 0; i < g.numOps; i++ {
		g.invokePos[i] = -1
		g.retPos[i] = -1
	}
	return g
}

func (g *slGame) apply(n *sim.Node) {
	for _, ev := range n.Events {
		switch ev.Kind {
		case sim.EventInvoke:
			g.invokePos[ev.OpID] = g.pos
		case sim.EventReturn:
			g.retPos[ev.OpID] = g.pos
			g.resps[ev.OpID] = ev.Resp
		}
		g.pos++
	}
}

func (g *slGame) undo(n *sim.Node) {
	for i := len(n.Events) - 1; i >= 0; i-- {
		ev := n.Events[i]
		g.pos--
		switch ev.Kind {
		case sim.EventInvoke:
			g.invokePos[ev.OpID] = -1
		case sim.EventReturn:
			g.retPos[ev.OpID] = -1
			g.resps[ev.OpID] = ""
		}
	}
}

// visit decides whether linearization l wins at node n. The history arrays
// reflect n on entry.
func (g *slGame) visit(n *sim.Node, l *linState) bool {
	if g.aborted {
		return false
	}
	key := slKey{n, l.key()}
	if v, ok := g.memo[key]; ok {
		return v
	}
	if len(g.memo) >= g.maxStates {
		g.aborted = true
		return false
	}

	ok := true
	for _, c := range n.Children {
		g.schedule = append(g.schedule, c.Proc)
		g.apply(c)
		served := g.serveChild(c, l)
		g.undo(c)
		g.schedule = g.schedule[:len(g.schedule)-1]
		if !served {
			ok = false
			break
		}
	}
	g.memo[key] = ok
	return ok
}

// serveChild finds an extension of l valid at child c that wins there. The
// history arrays reflect c on entry.
func (g *slGame) serveChild(c *sim.Node, l *linState) bool {
	// Operations already linearized (possibly while pending) whose actual
	// response materialised on this edge must match the committed response.
	var need []int
	for _, ev := range c.Events {
		if ev.Kind != sim.EventReturn {
			continue
		}
		if committed, in := l.contains(ev.OpID); in {
			if committed != ev.Resp {
				return false
			}
		} else {
			need = append(need, ev.OpID)
		}
	}
	if g.extend(c, l, need) {
		return true
	}
	if depth := len(g.schedule); depth > g.cexDepth {
		g.cexDepth = depth
		g.cex = &SLCounterexample{
			Schedule:    append([]int(nil), g.schedule[:depth-1]...),
			History:     g.renderHistory(),
			Lin:         append([]LinEntry(nil), l.entries...),
			ChildEvents: c.Events,
		}
	}
	return false
}

// extend enumerates extensions of l by operations invoked at c (completed
// ones from need are mandatory; pending ones optional) and recurses into c.
func (g *slGame) extend(c *sim.Node, l *linState, need []int) bool {
	if g.aborted {
		return false
	}
	if len(need) == 0 && g.visit(c, l) {
		return true
	}
	for opID := 0; opID < g.numOps; opID++ {
		if g.invokePos[opID] < 0 {
			continue // not invoked
		}
		if _, in := l.contains(opID); in {
			continue
		}
		// Real-time order: opID may be appended only if it does not precede
		// any operation already linearized.
		if r := g.retPos[opID]; r >= 0 && r < l.maxInvoke {
			continue
		}
		completed := g.retPos[opID] >= 0
		for _, out := range l.state.Steps(g.opSpecs[opID]) {
			if completed && out.Resp != g.resps[opID] {
				continue
			}
			l2 := l.append(opID, out, g.invokePos[opID])
			if g.extend(c, l2, without(need, opID)) {
				return true
			}
		}
	}
	return false
}

func without(xs []int, x int) []int {
	for i, v := range xs {
		if v == x {
			out := make([]int, 0, len(xs)-1)
			out = append(out, xs[:i]...)
			return append(out, xs[i+1:]...)
		}
	}
	return xs
}

func (g *slGame) renderHistory() string {
	var b strings.Builder
	for id := 0; id < g.numOps; id++ {
		if g.invokePos[id] < 0 {
			continue
		}
		resp := "?"
		if g.retPos[id] >= 0 {
			resp = g.resps[id]
		}
		fmt.Fprintf(&b, "#%d:%v=%s ", id, g.opSpecs[id], resp)
	}
	return strings.TrimSpace(b.String())
}
