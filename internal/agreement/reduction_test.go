package agreement

import (
	"math/rand"
	"testing"

	"stronglin/internal/baseline"
	"stronglin/internal/core"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// casQueueImpl is the strongly-linearizable queue (CAS universal object).
func casQueueImpl() Impl {
	return Impl{
		Name: "cas-queue",
		Build: func(w prim.World, n int) Object {
			return baseline.NewCASQueue(w, "A", n)
		},
	}
}

// hwQueueImpl is the linearizable-but-not-strongly-linearizable
// Herlihy–Wing queue.
func hwQueueImpl(capacity int) Impl {
	return Impl{
		Name: "hw-queue",
		Build: func(w prim.World, n int) Object {
			return baseline.NewHWQueue(w, "A", capacity)
		},
	}
}

// tasAdapter exposes the Theorem 5 readable test&set as a generic object.
type tasAdapter struct{ r *core.ReadableTAS }

func (a tasAdapter) Apply(t prim.Thread, op spec.Op) string {
	switch op.Method {
	case spec.MethodTAS:
		return spec.RespInt(a.r.TestAndSet(t))
	case spec.MethodRead:
		return spec.RespInt(a.r.Read(t))
	default:
		panic("tasAdapter: unsupported op " + op.Method)
	}
}

func readableTASImpl() Impl {
	return Impl{
		Name: "readable-tas",
		Build: func(w prim.World, n int) Object {
			return tasAdapter{r: core.NewReadableTAS(w, "A")}
		},
	}
}

// E-L12a: Algorithm B over a strongly-linearizable queue solves consensus
// among 3 processes — in EVERY schedule tried, all processes decide the same
// proposed value.
func TestReductionConsensusOverSLQueue(t *testing.T) {
	desc := QueueDescriptor(3)
	inputs := []int64{100, 200, 300}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := RunReduction(desc, casQueueImpl(), inputs, sim.RandomPolicy(rng), 200000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Decided() {
			t.Fatalf("seed %d: not all processes decided (steps=%d)", seed, res.Steps)
		}
		if got := res.Distinct(); got != 1 {
			t.Fatalf("seed %d: agreement violated: decisions %v", seed, render(res))
		}
		// Validity: the decision is a proposed value.
		valid := map[int64]bool{100: true, 200: true, 300: true}
		for i, d := range res.Decisions {
			if !valid[*d] {
				t.Fatalf("seed %d: process %d decided non-input %d", seed, i, *d)
			}
		}
	}
}

// E-L12b: the same over the strongly-linearizable stack.
func TestReductionConsensusOverSLStack(t *testing.T) {
	desc := StackDescriptor(3)
	impl := Impl{
		Name: "cas-stack",
		Build: func(w prim.World, n int) Object {
			return baseline.NewCASStack(w, "A", n)
		},
	}
	inputs := []int64{7, 8, 9}
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := RunReduction(desc, impl, inputs, sim.RandomPolicy(rng), 200000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Decided() || res.Distinct() != 1 {
			t.Fatalf("seed %d: decisions %v", seed, render(res))
		}
	}
}

// E-L12c: Algorithm B over Theorem 5's readable test&set solves 2-process
// consensus (test&set has consensus number 2, and the implementation is
// strongly linearizable).
func TestReductionConsensusOverReadableTAS(t *testing.T) {
	desc := ReadableTASDescriptor()
	inputs := []int64{41, 42}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := RunReduction(desc, readableTASImpl(), inputs, sim.RandomPolicy(rng), 100000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Decided() || res.Distinct() != 1 {
			t.Fatalf("seed %d: decisions %v", seed, render(res))
		}
	}
}

// E-T17b: over the merely-linearizable Herlihy–Wing queue, Algorithm B
// violates agreement in reachable schedules — the empirical face of Theorem
// 17 (if the queue were strongly linearizable, B would solve 3-process
// consensus from fetch&add/swap, contradicting Corollary 15).
func TestReductionBreaksWithoutStrongLinearizability(t *testing.T) {
	desc := QueueDescriptor(3)
	inputs := []int64{100, 200, 300}
	violations, runs := 0, 0
	for seed := int64(0); seed < 400 && violations == 0; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := RunReduction(desc, hwQueueImpl(3), inputs, sim.RandomPolicy(rng), 200000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Decided() {
			continue
		}
		runs++
		if res.Distinct() > 1 {
			violations++
			t.Logf("seed %d: agreement violated as expected: %v", seed, render(res))
		}
	}
	if violations == 0 {
		t.Fatalf("no agreement violation found over the Herlihy–Wing queue in %d complete runs; "+
			"Theorem 17 predicts the reduction must be breakable", runs)
	}
}

// The deterministic version of the violation: an adversary that stalls p0
// between its back-slot reservation (fetch&add) and its slot write. p1 and
// p2 then run to completion — their collects see slot 0 empty, their solo
// dequeues skip to p1's item, and both decide p1's input; p0 finally writes
// slot 0, collects, dequeues its own item first, and decides its own input.
// Two distinct decisions, every time.
func TestReductionDeterministicViolation(t *testing.T) {
	desc := QueueDescriptor(3)
	inputs := []int64{100, 200, 300}
	grants0 := 0
	policy := func(v sim.PolicyView) int {
		// p0's first 5 grants: invoke, M-write, T-write, fetch&add, T-write
		// (stopping just before the slot write).
		if grants0 < 5 {
			for _, p := range v.Enabled {
				if p == 0 {
					grants0++
					return 0
				}
			}
		}
		for _, want := range []int{1, 2, 0} {
			for _, p := range v.Enabled {
				if p == want {
					return p
				}
			}
		}
		return v.Enabled[0]
	}
	res, err := RunReduction(desc, hwQueueImpl(3), inputs, policy, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided() {
		t.Fatal("not all processes decided")
	}
	if res.Distinct() < 2 {
		t.Fatalf("expected a deterministic agreement violation, got decisions %v", render(res))
	}
	// p1 and p2 agree with each other; p0 deviates.
	if *res.Decisions[1] != *res.Decisions[2] || *res.Decisions[0] == *res.Decisions[1] {
		t.Fatalf("unexpected violation shape: %v", render(res))
	}
}

// The same adversary cannot break the strongly-linearizable queue.
func TestReductionDeterministicAdversaryFailsAgainstSLQueue(t *testing.T) {
	desc := QueueDescriptor(3)
	inputs := []int64{100, 200, 300}
	grants0 := 0
	policy := func(v sim.PolicyView) int {
		if grants0 < 5 {
			for _, p := range v.Enabled {
				if p == 0 {
					grants0++
					return 0
				}
			}
		}
		for _, want := range []int{1, 2, 0} {
			for _, p := range v.Enabled {
				if p == want {
					return p
				}
			}
		}
		return v.Enabled[0]
	}
	res, err := RunReduction(desc, casQueueImpl(), inputs, policy, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided() || res.Distinct() != 1 {
		t.Fatalf("SL queue broken by the stall adversary: %v", render(res))
	}
}

// The violation frequency is a quantitative handle on Lemma 12, the census
// examples/setagreement prints over all four implementations: count
// violations over a fixed seed range for both queues.
func TestReductionViolationCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("census skipped in -short mode")
	}
	desc := QueueDescriptor(3)
	inputs := []int64{100, 200, 300}
	census := func(impl Impl) (violations, runs int) {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := RunReduction(desc, impl, inputs, sim.RandomPolicy(rng), 200000)
			if err != nil || !res.Decided() {
				continue
			}
			runs++
			if res.Distinct() > 1 {
				violations++
			}
		}
		return
	}
	slV, slR := census(casQueueImpl())
	hwV, hwR := census(hwQueueImpl(3))
	t.Logf("census: cas-queue %d/%d violations, hw-queue %d/%d violations", slV, slR, hwV, hwR)
	if slV != 0 {
		t.Fatalf("strongly-linearizable queue produced %d violations", slV)
	}
	if hwV == 0 {
		t.Fatalf("Herlihy–Wing queue produced no violations in %d runs", hwR)
	}
}

func render(r *ReductionResult) []int64 {
	out := make([]int64, 0, len(r.Decisions))
	for _, d := range r.Decisions {
		if d == nil {
			out = append(out, -1)
		} else {
			out = append(out, *d)
		}
	}
	return out
}
