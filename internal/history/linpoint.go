package history

import (
	"fmt"

	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// CertResult is the outcome of a linearization-point certificate check.
type CertResult struct {
	// Ok reports that the certificate establishes strong linearizability on
	// the tree.
	Ok bool
	// Leaves counts the maximal executions checked.
	Leaves int
	// Failure describes the first violation.
	Failure string
}

// CheckLinPointCertificate verifies a linearization-point certificate: the
// implementation marked, on each operation, one of its own base-object steps
// as its linearization point (sim.World.MarkLinPoint). If, on EVERY maximal
// execution of the tree,
//
//   - every completed operation has exactly one marked step,
//   - and replaying the operations in marked-step order through the
//     specification reproduces every completed operation's response,
//
// then the function mapping each execution to its marked-order linearization
// is prefix-closed by construction (marks are own steps, fixed once taken),
// so the implementation is strongly linearizable on the tree.
//
// This check is linear in the tree — it avoids the game search entirely —
// but applies only to constructions with immediate own-step linearization
// points (the fetch&add objects of Theorems 1 and 2; NOT Theorem 5, whose
// losing test&set operations are linearized by another process's step).
// A missing mark on a completed operation fails the certificate even when
// the object is strongly linearizable: see the E-ABL1 ablation in
// internal/core's tests (the max register without its fetch&add(R, 0)),
// where no-op WriteMax operations take no step at all.
func CheckLinPointCertificate(tree *sim.Tree, sp spec.Spec) CertResult {
	specs := make(map[int]spec.Op, len(tree.Ops))
	for _, oi := range tree.Ops {
		specs[oi.ID] = oi.Spec
	}
	res := CertResult{Ok: true}
	tree.Walk(func(n *sim.Node, trace []sim.Event) bool {
		if !res.Ok || len(n.Children) > 0 {
			return res.Ok
		}
		res.Leaves++

		var order []int
		marks := make(map[int]int)
		resp := make(map[int]string)
		for _, ev := range trace {
			switch {
			case ev.Kind == sim.EventStep && ev.LinPoint:
				marks[ev.OpID]++
				order = append(order, ev.OpID)
			case ev.Kind == sim.EventReturn:
				resp[ev.OpID] = ev.Resp
			}
		}
		for id, c := range marks {
			if c > 1 {
				res.Ok = false
				res.Failure = fmt.Sprintf("operation #%d marked %d linearization points", id, c)
				return false
			}
		}
		for id := range resp {
			if marks[id] == 0 {
				res.Ok = false
				res.Failure = fmt.Sprintf("completed operation #%d has no linearization point", id)
				return false
			}
		}

		st := sp.Init(tree.Procs)
		for _, id := range order {
			outs := st.Steps(specs[id])
			matched := false
			for _, out := range outs {
				r, completed := resp[id]
				if !completed || out.Resp == r {
					st = out.Next
					matched = true
					break
				}
			}
			if !matched {
				res.Ok = false
				res.Failure = fmt.Sprintf("marked order invalid at #%d (%v): spec offers no outcome matching %q",
					id, specs[id], resp[id])
				return false
			}
		}
		return true
	})
	return res
}
