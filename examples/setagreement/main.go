// Command setagreement runs the paper's Lemma 12 reduction (Algorithm B)
// end to end: k-set agreement from a single lock-free strongly-linearizable
// k-ordering object with readable base objects.
//
// Over the strongly-linearizable CAS queue and CAS stack, three processes
// solve consensus in every schedule, and over Theorem 5's readable
// test&set two processes do. Over the Herlihy–Wing queue — linearizable
// but, by Theorem 17, necessarily NOT strongly linearizable — the reduction
// is breakable: some schedules produce two distinct decisions. That
// breakage is the executable content of the impossibility proof: were the
// queue strongly linearizable, Algorithm B would solve 3-process consensus
// from fetch&add/swap, contradicting their consensus number of 2.
//
// The command exits 1 if a strongly-linearizable row violates agreement or
// any run errors.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"stronglin/internal/agreement"
	"stronglin/internal/baseline"
	"stronglin/internal/core"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

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

// row is one implementation of the k-ordering object A, with the
// descriptor and inputs Algorithm B runs it under.
type row struct {
	impl   agreement.Impl
	desc   agreement.Descriptor
	inputs []int64
	sl     bool // strongly linearizable: agreement must hold in every run
}

func main() {
	const runsPerImpl = 300
	queue3, inputs3 := agreement.QueueDescriptor(3), []int64{100, 200, 300}
	rows := []row{
		{agreement.Impl{Name: "cas-queue    (strongly linearizable)", Build: func(w prim.World, n int) agreement.Object {
			return baseline.NewCASQueue(w, "A", n)
		}}, queue3, inputs3, true},
		{agreement.Impl{Name: "cas-stack    (strongly linearizable)", Build: func(w prim.World, n int) agreement.Object {
			return baseline.NewCASStack(w, "A", n)
		}}, agreement.StackDescriptor(3), inputs3, true},
		{agreement.Impl{Name: "readable-tas (strongly linearizable)", Build: func(w prim.World, n int) agreement.Object {
			return tasAdapter{r: core.NewReadableTAS(w, "A")}
		}}, agreement.ReadableTASDescriptor(), []int64{41, 42}, true},
		{agreement.Impl{Name: "hw-queue     (linearizable only)", Build: func(w prim.World, n int) agreement.Object {
			return baseline.NewHWQueue(w, "A", 3)
		}}, queue3, inputs3, false},
	}

	fmt.Println("Lemma 12 / Algorithm B: consensus from a 1-ordering object")
	fmt.Printf("%d random schedules per implementation\n\n", runsPerImpl)
	fmt.Printf("%-38s %-6s %-10s %-12s %s\n", "implementation of A", "procs", "complete", "violations", "example violation")

	failed := false
	for _, r := range rows {
		var complete, violations int
		example := "-"
		for seed := int64(0); seed < runsPerImpl; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := agreement.RunReduction(r.desc, r.impl, r.inputs, sim.RandomPolicy(rng), 200000)
			if err != nil {
				fmt.Printf("  error (seed %d): %v\n", seed, err)
				failed = true
				continue
			}
			if !res.Decided() {
				continue
			}
			complete++
			if res.Distinct() > 1 {
				violations++
				if example == "-" {
					example = fmt.Sprintf("seed %d -> %v", seed, decisions(res))
				}
			}
		}
		fmt.Printf("%-38s %-6d %-10d %-12d %s\n", r.impl.Name, r.desc.N, complete, violations, example)
		if r.sl && violations > 0 {
			failed = true
		}
	}

	fmt.Println()
	fmt.Println("strong linearizability is exactly what pins the winning enqueue at")
	fmt.Println("collect time; without it, two processes can collect states whose solo")
	fmt.Println("simulations dequeue different \"first\" items.")
	if failed {
		fmt.Println("\nFAIL: a strongly-linearizable row violated agreement or a run errored")
		os.Exit(1)
	}
}

func decisions(r *agreement.ReductionResult) []int64 {
	out := make([]int64, len(r.Decisions))
	for i, d := range r.Decisions {
		if d != nil {
			out[i] = *d
		} else {
			out[i] = -1
		}
	}
	return out
}
