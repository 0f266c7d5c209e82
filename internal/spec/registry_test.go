package spec

import (
	"math/rand"
	"testing"
)

// Registry returns the specifications of every object studied in the
// repository, for the tests that sweep all of them.
func Registry() []Spec {
	return []Spec{
		MaxRegister{},
		Snapshot{},
		Counter{},
		MonotonicCounter{},
		LogicalClock{},
		GSet{},
		RWRegister{},
		ReadableTAS{},
		MultiShotTAS{},
		FetchInc{},
		TakeSet{},
		Queue{},
		Stack{},
		MultiplicityQueue{},
		MultiplicityStack{},
		StutteringQueue{M: 1},
		StutteringStack{M: 1},
		OutOfOrderQueue{K: 2},
		KeyedMap{},
	}
}

// ProbeOps returns a small set of operations that exercise the named
// specification, for generic metamorphic tests.
func ProbeOps(name string) []Op {
	switch name {
	case "maxregister":
		return []Op{MkOp(MethodWriteMax, 1), MkOp(MethodWriteMax, 3), MkOp(MethodReadMax)}
	case "snapshot":
		return []Op{MkOp(MethodUpdate, 0, 2), MkOp(MethodUpdate, 1, 1), MkOp(MethodScan)}
	case "counter":
		return []Op{MkOp(MethodInc), MkOp(MethodDec), MkOp(MethodRead)}
	case "monocounter", "logicalclock":
		return []Op{MkOp(MethodInc), MkOp(MethodTick), MkOp(MethodRead)}
	case "gset":
		return []Op{MkOp(MethodAdd, 1), MkOp(MethodAdd, 2), MkOp(MethodHas, 1)}
	case "keyedmap":
		return []Op{MkOp(MethodMapInc, 1, 1), MkOp(MethodMapMax, 2, 5), MkOp(MethodMapGet, 1), MkOp(MethodMapGet, 3)}
	case "register":
		return []Op{MkOp(MethodWrite, 1), MkOp(MethodWrite, 2), MkOp(MethodRead)}
	case "readable-tas", "multishot-tas":
		return []Op{MkOp(MethodTAS), MkOp(MethodRead), MkOp(MethodReset)}
	case "fetchinc":
		return []Op{MkOp(MethodFAI), MkOp(MethodRead)}
	case "set":
		return []Op{MkOp(MethodPut, 1), MkOp(MethodPut, 2), MkOp(MethodTake)}
	default: // queue/stack families
		return []Op{
			MkOp(MethodEnq, 1), MkOp(MethodEnq, 2), MkOp(MethodDeq),
			MkOp(MethodPush, 1), MkOp(MethodPush, 2), MkOp(MethodPop),
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	specs := Registry()
	if len(specs) < 15 {
		t.Fatalf("registry has %d specs", len(specs))
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if seen[sp.Name()] {
			t.Fatalf("duplicate spec name %q", sp.Name())
		}
		seen[sp.Name()] = true
		if sp.Init(3) == nil {
			t.Fatalf("%s: nil initial state", sp.Name())
		}
	}
}

// Metamorphic soundness of Key(): states with equal keys must be
// observationally equal — every probe op yields the same response multiset
// and successor keys. (The checkers' memoisation depends on this.)
func TestKeySoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sp := range Registry() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			probes := ProbeOps(sp.Name())
			// Collect states reachable within 4 random steps, bucketed by key.
			buckets := make(map[string][]State)
			var explore func(st State, depth int)
			explore = func(st State, depth int) {
				buckets[st.Key()] = append(buckets[st.Key()], st)
				if depth == 0 {
					return
				}
				op := probes[rng.Intn(len(probes))]
				for _, out := range st.Steps(op) {
					explore(out.Next, depth-1)
				}
			}
			explore(sp.Init(3), 4)
			for key, states := range buckets {
				if len(states) < 2 {
					continue
				}
				ref := states[0]
				for _, other := range states[1:] {
					for _, op := range probes {
						if !sameOutcomes(ref.Steps(op), other.Steps(op)) {
							t.Fatalf("key %q conflates observationally distinct states (op %v)", key, op)
						}
					}
				}
			}
		})
	}
}

func sameOutcomes(a, b []Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	count := func(outs []Outcome) map[string]int {
		m := make(map[string]int)
		for _, o := range outs {
			m[o.Resp+"\x00"+o.Next.Key()]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for k, v := range ca {
		if cb[k] != v {
			return false
		}
	}
	return len(ca) == len(cb)
}

// Keys must change when the abstract state changes.
func TestKeySensitivity(t *testing.T) {
	cases := []struct {
		sp Spec
		op Op
	}{
		{MaxRegister{}, MkOp(MethodWriteMax, 5)},
		{Counter{}, MkOp(MethodInc)},
		{Queue{}, MkOp(MethodEnq, 1)},
		{Stack{}, MkOp(MethodPush, 1)},
		{TakeSet{}, MkOp(MethodPut, 1)},
		{GSet{}, MkOp(MethodAdd, 1)},
		{ReadableTAS{}, MkOp(MethodTAS)},
		{FetchInc{}, MkOp(MethodFAI)},
		{RWRegister{}, MkOp(MethodWrite, 9)},
	}
	for _, tc := range cases {
		init := tc.sp.Init(2)
		next := init.Steps(tc.op)[0].Next
		if init.Key() == next.Key() {
			t.Errorf("%s: key unchanged after %v", tc.sp.Name(), tc.op)
		}
	}
}
