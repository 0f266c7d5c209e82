package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stronglin/internal/history"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// opsOf enumerates a generator of plausible operations per simple type, used
// by the relation-validation property tests.
func opsOf(typ SimpleType, rng *rand.Rand) spec.Op {
	v := int64(rng.Intn(4))
	switch typ.Name() {
	case "counter":
		return []spec.Op{spec.MkOp(spec.MethodInc), spec.MkOp(spec.MethodDec), spec.MkOp(spec.MethodRead)}[rng.Intn(3)]
	case "monocounter":
		return []spec.Op{spec.MkOp(spec.MethodInc), spec.MkOp(spec.MethodRead)}[rng.Intn(2)]
	case "logicalclock":
		return []spec.Op{spec.MkOp(spec.MethodTick), spec.MkOp(spec.MethodRead)}[rng.Intn(2)]
	case "maxregister":
		if rng.Intn(2) == 0 {
			return spec.MkOp(spec.MethodWriteMax, v)
		}
		return spec.MkOp(spec.MethodReadMax)
	case "gset":
		if rng.Intn(2) == 0 {
			return spec.MkOp(spec.MethodAdd, v)
		}
		return spec.MkOp(spec.MethodHas, v)
	case "register":
		if rng.Intn(2) == 0 {
			return spec.MkOp(spec.MethodWrite, v)
		}
		return spec.MkOp(spec.MethodRead)
	default:
		panic("unknown simple type " + typ.Name())
	}
}

func applyState(t *testing.T, st spec.State, op spec.Op) (spec.State, string) {
	t.Helper()
	outs := st.Steps(op)
	if len(outs) != 1 {
		t.Fatalf("simple type op %v not deterministic", op)
	}
	return outs[0].Next, outs[0].Resp
}

// TestSimpleTypeRelationLaws validates the declared Commutes/Overwrites
// relations against the sequential specifications on randomized states —
// including the response-inclusive clauses of the Aspnes–Herlihy
// definitions — and checks the totality requirement: every pair commutes or
// overwrites in at least one direction.
func TestSimpleTypeRelationLaws(t *testing.T) {
	types := []SimpleType{
		SimpleCounter{}, SimpleMonotonicCounter{}, SimpleLogicalClock{},
		SimpleMaxRegister{}, SimpleGSet{}, SimpleRegister{},
	}
	for _, typ := range types {
		typ := typ
		t.Run(typ.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			f := func(warmup8 uint8) bool {
				// Random reachable state.
				st := typ.Init(2)
				for i := 0; i < int(warmup8%6); i++ {
					st, _ = applyState(t, st, opsOf(typ, rng))
				}
				a, b := opsOf(typ, rng), opsOf(typ, rng)

				afterA, respAFirst := applyState(t, st, a)
				ab, respBSecond := applyState(t, afterA, b)
				afterB, respBFirst := applyState(t, st, b)
				ba, respASecond := applyState(t, afterB, a)

				if typ.Commutes(a, b) {
					if ab.Key() != ba.Key() || respAFirst != respASecond || respBFirst != respBSecond {
						t.Logf("%s: Commutes(%v,%v) violated at %s", typ.Name(), a, b, st.Key())
						return false
					}
				}
				if typ.Overwrites(a, b) && (ba.Key() != afterA.Key() || respASecond != respAFirst) {
					t.Logf("%s: Overwrites(%v,%v) violated at %s", typ.Name(), a, b, st.Key())
					return false
				}
				if typ.Overwrites(b, a) && (ab.Key() != afterB.Key() || respBSecond != respBFirst) {
					t.Logf("%s: Overwrites(%v,%v) violated at %s", typ.Name(), b, a, st.Key())
					return false
				}
				// Totality: simple types require commute-or-overwrite.
				if !typ.Commutes(a, b) && !typ.Overwrites(a, b) && !typ.Overwrites(b, a) {
					t.Logf("%s: pair (%v,%v) neither commutes nor overwrites", typ.Name(), a, b)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// notSimpleTick wraps the readable fetch&increment specification — "tick
// returning its position" — with bogus relation declarations. It is NOT a
// simple type: two fai operations have order-dependent responses and neither
// overwrites the other. Algorithm 1 over it must therefore produce
// non-linearizable executions, which the model checker detects. This guards
// the totality requirement of the SimpleType contract.
type notSimpleTick struct{ spec.FetchInc }

func (notSimpleTick) Commutes(a, b spec.Op) bool   { return true }
func (notSimpleTick) Overwrites(a, b spec.Op) bool { return b.Method == spec.MethodRead }

func TestLogicalClockWithReturnValueIsNotSimple(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "bad", notSimpleTick{}, 2)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodFAI))},
			{opExecute(o, spec.MkOp(spec.MethodFAI))},
		}
	}
	v, err := history.Verify(2, setup, spec.FetchInc{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Linearizable {
		t.Fatal("Algorithm 1 over a non-simple type produced only linearizable executions; expected a violation")
	}
}

func TestSimpleObjectSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewCounterFromFA(w, "ctr", 2)
	th0, th1 := sim.SoloThread(0), sim.SoloThread(1)
	c.Inc(th0)
	c.Inc(th1)
	c.Dec(th0)
	if got := c.Read(th1); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

func TestLogicalClockSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewLogicalClockFromFA(w, "clk", 2)
	th := sim.SoloThread(0)
	c.Tick(th)
	c.Tick(th)
	if got := c.Read(sim.SoloThread(1)); got != 2 {
		t.Fatalf("read = %d, want 2", got)
	}
}

func TestGSetSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	s := NewGSetFromFA(w, "set", 2)
	th := sim.SoloThread(0)
	if s.Has(th, 4) {
		t.Fatal("fresh set contains 4")
	}
	s.Add(th, 4)
	if !s.Has(sim.SoloThread(1), 4) {
		t.Fatal("added element missing")
	}
}

// E-T3/E-T4: Algorithm 1 over the fetch&add snapshot is strongly
// linearizable for each instantiated simple type.
func TestSimpleCounterStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "ctr", SimpleCounter{}, 2)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodInc)), opExecute(o, spec.MkOp(spec.MethodRead))},
			{opExecute(o, spec.MkOp(spec.MethodInc)), opExecute(o, spec.MkOp(spec.MethodRead))},
		}
	}
	verifySL(t, 2, setup, spec.Counter{})
}

func TestSimpleCounterStrongLinThreeProcs(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "ctr", SimpleCounter{}, 3)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodInc))},
			{opExecute(o, spec.MkOp(spec.MethodDec))},
			{opExecute(o, spec.MkOp(spec.MethodRead))},
		}
	}
	verifySL(t, 3, setup, spec.Counter{})
}

func TestSimpleMaxRegisterStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "max", SimpleMaxRegister{}, 2)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodWriteMax, 2)), opExecute(o, spec.MkOp(spec.MethodReadMax))},
			{opExecute(o, spec.MkOp(spec.MethodWriteMax, 1)), opExecute(o, spec.MkOp(spec.MethodReadMax))},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

func TestSimpleRegisterStrongLin(t *testing.T) {
	// Writes mutually overwrite: the pid tie-break in the dominance order.
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "reg", SimpleRegister{}, 2)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodWrite, 1)), opExecute(o, spec.MkOp(spec.MethodRead))},
			{opExecute(o, spec.MkOp(spec.MethodWrite, 2)), opExecute(o, spec.MkOp(spec.MethodRead))},
		}
	}
	verifySL(t, 2, setup, spec.RWRegister{})
}

func TestSimpleGSetStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "set", SimpleGSet{}, 2)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodAdd, 1)), opExecute(o, spec.MkOp(spec.MethodHas, 2))},
			{opExecute(o, spec.MkOp(spec.MethodAdd, 2)), opExecute(o, spec.MkOp(spec.MethodHas, 1))},
		}
	}
	verifySL(t, 2, setup, spec.GSet{})
}

func TestSimpleLogicalClockStrongLin(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		o := NewSimpleObjectFromFA(w, "clk", SimpleLogicalClock{}, 2)
		return []sim.Program{
			{opExecute(o, spec.MkOp(spec.MethodTick)), opExecute(o, spec.MkOp(spec.MethodRead))},
			{opExecute(o, spec.MkOp(spec.MethodTick))},
		}
	}
	verifySL(t, 2, setup, spec.LogicalClock{})
}
