package core

import (
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// --- sim.Op builders ---------------------------------------------------------

func opWriteMax(m prim.MaxReg, v int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodWriteMax, v).String(),
		Spec: spec.MkOp(spec.MethodWriteMax, v),
		Run: func(t prim.Thread) string {
			m.WriteMax(t, v)
			return spec.RespOK
		},
	}
}

func opReadMax(m prim.MaxReg) sim.Op {
	return sim.Op{
		Name: "rmax()",
		Spec: spec.MkOp(spec.MethodReadMax),
		Run:  func(t prim.Thread) string { return spec.RespInt(m.ReadMax(t)) },
	}
}

func opUpdate(s SnapshotAPI, i, v int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodUpdate, i, v).String(),
		Spec: spec.MkOp(spec.MethodUpdate, i, v),
		Run: func(t prim.Thread) string {
			s.Update(t, v)
			return spec.RespOK
		},
	}
}

func opScan(s SnapshotAPI) sim.Op {
	return sim.Op{
		Name: "scan()",
		Spec: spec.MkOp(spec.MethodScan),
		Run:  func(t prim.Thread) string { return spec.RespVec(s.Scan(t)) },
	}
}

func opTAS(o interface {
	TestAndSet(t prim.Thread) int64
}) sim.Op {
	return sim.Op{
		Name: "tas()",
		Spec: spec.MkOp(spec.MethodTAS),
		Run:  func(t prim.Thread) string { return spec.RespInt(o.TestAndSet(t)) },
	}
}

func opTASRead(o interface {
	Read(t prim.Thread) int64
}) sim.Op {
	return sim.Op{
		Name: "read()",
		Spec: spec.MkOp(spec.MethodRead),
		Run:  func(t prim.Thread) string { return spec.RespInt(o.Read(t)) },
	}
}

func opReset(o *MultiShotTAS) sim.Op {
	return sim.Op{
		Name: "reset()",
		Spec: spec.MkOp(spec.MethodReset),
		Run: func(t prim.Thread) string {
			o.Reset(t)
			return spec.RespOK
		},
	}
}

func opFAI(o FetchIncAPI) sim.Op {
	return sim.Op{
		Name: "fai()",
		Spec: spec.MkOp(spec.MethodFAI),
		Run:  func(t prim.Thread) string { return spec.RespInt(o.FetchIncrement(t)) },
	}
}

func opFAIRead(o FetchIncAPI) sim.Op {
	return sim.Op{
		Name: "read()",
		Spec: spec.MkOp(spec.MethodRead),
		Run:  func(t prim.Thread) string { return spec.RespInt(o.Read(t)) },
	}
}

func opPut(s *TASSet, x int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodPut, x).String(),
		Spec: spec.MkOp(spec.MethodPut, x),
		Run:  func(t prim.Thread) string { return s.Put(t, x) },
	}
}

func opTake(s *TASSet) sim.Op {
	return sim.Op{
		Name: "take()",
		Spec: spec.MkOp(spec.MethodTake),
		Run:  func(t prim.Thread) string { return s.Take(t) },
	}
}

func opExecute(o *SimpleObject, op spec.Op) sim.Op {
	return sim.Op{
		Name: op.String(),
		Spec: op,
		Run:  func(t prim.Thread) string { return o.Execute(t, op) },
	}
}

// verifySL explores every interleaving of the configuration and requires
// both linearizability and strong linearizability.
func verifySL(t *testing.T, procs int, setup sim.Setup, sp spec.Spec) history.Verdict {
	t.Helper()
	v, err := history.Verify(procs, setup, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable {
		t.Fatalf("linearizability violated: %s", v.LinViolation)
	}
	if !v.StrongLin.Ok {
		t.Fatalf("strong linearizability violated: %v", v.StrongLin.Counterexample)
	}
	return v
}

// pinTree pins an exhaustive check's execution-tree size: a change that
// moves a protocol step changes these counts, so it shows in review.
func pinTree(t *testing.T, v history.Verdict, nodes, leaves int) {
	t.Helper()
	if v.Nodes != nodes || v.Leaves != leaves {
		t.Errorf("tree has %d nodes, %d leaves; pinned %d, %d", v.Nodes, v.Leaves, nodes, leaves)
	}
}
