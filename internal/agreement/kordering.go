// Package agreement implements Section 5 of the paper: k-ordering objects
// (Definition 11), the reduction from lock-free strongly-linearizable
// k-ordering implementations to k-set agreement (Lemma 12, Algorithm B),
// and the consensus protocols that calibrate the consensus hierarchy
// (2-process consensus from test&set, n-process consensus from
// compare&swap).
package agreement

import (
	"fmt"
	"strconv"
	"strings"

	"stronglin/internal/spec"
)

// Descriptor presents an object as k-ordering (Definition 11): per-process
// proposal and decision invocation sequences and a decision function d such
// that executing prop_i on the object, then locally simulating dec_i,
// identifies one of at most k "winning" process indexes, fixed by the prefix
// in which the first process completed its proposals.
type Descriptor struct {
	Name string
	// Spec is the sequential object (for Lemma 12 this is also the object
	// the checked implementation implements).
	Spec spec.Spec
	// SeqSpec is the specification used when enumerating the *sequential*
	// executions of Definition 11. For most objects it equals Spec; for the
	// multiplicity relaxations it is the unrelaxed object, because their
	// relaxation fires only for concurrent operations and Definition 11
	// quantifies over sequential executions (paper footnote 3).
	SeqSpec spec.Spec
	// N is the number of processes, K the agreement bound.
	N, K int
	// Prop and Dec return the proposal/decision invocation sequences of
	// process i.
	Prop func(i int) []spec.Op
	Dec  func(i int) []spec.Op
	// D maps process i and the concatenated responses of prop_i and dec_i
	// to the winning process index.
	D func(i int, resps []string) int
}

// procOf recovers a process index from an item value encoded as i+1 (queue
// and stack proposals enqueue/push i+1 because implementations reserve 0/
// negative values as sentinels).
func procOf(resp string) int {
	v, err := strconv.Atoi(resp)
	if err != nil {
		return -1
	}
	return v - 1
}

// lastNonEmpty returns the last response in resps that is not spec.RespEmpty
// (the paper's "non-ε element of the sequence with largest subindex").
func lastNonEmpty(resps []string) string {
	for i := len(resps) - 1; i >= 0; i-- {
		if resps[i] != spec.RespEmpty {
			return resps[i]
		}
	}
	return ""
}

// QueueDescriptor presents the FIFO queue as a 1-ordering object:
// prop_i = enq(i+1), dec_i = deq(), d(i, OK·ℓ) = ℓ.
func QueueDescriptor(n int) Descriptor {
	return Descriptor{
		Name:    "queue",
		Spec:    spec.Queue{},
		SeqSpec: spec.Queue{},
		N:       n,
		K:       1,
		Prop:    func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodEnq, int64(i)+1)} },
		Dec:     func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodDeq)} },
		D:       func(i int, resps []string) int { return procOf(resps[len(resps)-1]) },
	}
}

// StackDescriptor presents the LIFO stack as a 1-ordering object:
// prop_i = push(i+1), dec_i = pop()^(n+1), d = last non-ε response.
func StackDescriptor(n int) Descriptor {
	return Descriptor{
		Name:    "stack",
		Spec:    spec.Stack{},
		SeqSpec: spec.Stack{},
		N:       n,
		K:       1,
		Prop:    func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodPush, int64(i)+1)} },
		Dec: func(i int) []spec.Op {
			out := make([]spec.Op, n+1)
			for j := range out {
				out[j] = spec.MkOp(spec.MethodPop)
			}
			return out
		},
		D: func(i int, resps []string) int { return procOf(lastNonEmpty(resps)) },
	}
}

// MultiplicityQueueDescriptor presents the queue with multiplicity as a
// 1-ordering object, with the same sequences and decision function as the
// queue (the relaxation fires only under concurrency, never in Definition
// 11's sequential executions).
func MultiplicityQueueDescriptor(n int) Descriptor {
	d := QueueDescriptor(n)
	d.Name = "multiplicity-queue"
	d.Spec = spec.MultiplicityQueue{}
	d.SeqSpec = spec.Queue{}
	return d
}

// MultiplicityStackDescriptor presents the stack with multiplicity as a
// 1-ordering object.
func MultiplicityStackDescriptor(n int) Descriptor {
	d := StackDescriptor(n)
	d.Name = "multiplicity-stack"
	d.Spec = spec.MultiplicityStack{}
	d.SeqSpec = spec.Stack{}
	return d
}

// StutteringQueueDescriptor presents the m-stuttering queue as a 1-ordering
// object: prop_i = enq(i+1)^(m+1) (at least one enqueue takes effect),
// dec_i = deq(), d = process of the dequeued item (a dequeue — stuttering or
// not — returns the oldest item, which is the first effective enqueue).
func StutteringQueueDescriptor(n, m int) Descriptor {
	return Descriptor{
		Name:    fmt.Sprintf("stuttering-queue(%d)", m),
		Spec:    spec.StutteringQueue{M: m},
		SeqSpec: spec.StutteringQueue{M: m},
		N:       n,
		K:       1,
		Prop: func(i int) []spec.Op {
			out := make([]spec.Op, m+1)
			for j := range out {
				out[j] = spec.MkOp(spec.MethodEnq, int64(i)+1)
			}
			return out
		},
		Dec: func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodDeq)} },
		D:   func(i int, resps []string) int { return procOf(resps[len(resps)-1]) },
	}
}

// StutteringStackDescriptor presents the m-stuttering stack as a 1-ordering
// object: prop_i = push(i+1)^(m+1), dec_i = pop()^L, d = last non-ε.
//
// The paper uses L = n(m+1)+1 pops. Against the footnote-4 semantics
// (a counter per operation type, reset on effect) that length is sufficient
// only when pops resolve favourably: a decision sequence alternating
// stuttering and effectful pops can fail to drain the stack, leaving no ε
// response and making the last response a non-bottom item. We therefore use
// L = n(m+1)(m+1)+1, which guarantees the stack drains and d returns the
// first effective push under EVERY outcome resolution; the Definition 11
// validator demonstrates the discrepancy for the paper's length (see
// TestStutteringStackPaperLengthInsufficient).
func StutteringStackDescriptor(n, m int) Descriptor {
	return Descriptor{
		Name:    fmt.Sprintf("stuttering-stack(%d)", m),
		Spec:    spec.StutteringStack{M: m},
		SeqSpec: spec.StutteringStack{M: m},
		N:       n,
		K:       1,
		Prop: func(i int) []spec.Op {
			out := make([]spec.Op, m+1)
			for j := range out {
				out[j] = spec.MkOp(spec.MethodPush, int64(i)+1)
			}
			return out
		},
		Dec: func(i int) []spec.Op {
			out := make([]spec.Op, n*(m+1)*(m+1)+1)
			for j := range out {
				out[j] = spec.MkOp(spec.MethodPop)
			}
			return out
		},
		D: func(i int, resps []string) int { return procOf(lastNonEmpty(resps)) },
	}
}

// StutteringStackPaperDescriptor is StutteringStackDescriptor with the
// paper's dec length n(m+1)+1; it exists so the validator can exhibit the
// insufficiency (pinned by TestStutteringStackPaperLengthInsufficient).
func StutteringStackPaperDescriptor(n, m int) Descriptor {
	d := StutteringStackDescriptor(n, m)
	d.Dec = func(i int) []spec.Op {
		out := make([]spec.Op, n*(m+1)+1)
		for j := range out {
			out[j] = spec.MkOp(spec.MethodPop)
		}
		return out
	}
	return d
}

// OutOfOrderQueueDescriptor presents the k-out-of-order queue as a
// k-ordering object: prop_i = enq(i+1), dec_i = deq(), d = process of the
// dequeued item (one of the k oldest).
func OutOfOrderQueueDescriptor(n, k int) Descriptor {
	return Descriptor{
		Name:    fmt.Sprintf("%d-out-of-order-queue", k),
		Spec:    spec.OutOfOrderQueue{K: k},
		SeqSpec: spec.OutOfOrderQueue{K: k},
		N:       n,
		K:       k,
		Prop:    func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodEnq, int64(i)+1)} },
		Dec:     func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodDeq)} },
		D:       func(i int, resps []string) int { return procOf(resps[len(resps)-1]) },
	}
}

// ReadableTASDescriptor presents the 2-process readable test&set as a
// 1-ordering object: prop_i = tas(), dec_i = read(), and d decodes the
// winner from the caller's own test&set response (0 means "I won").
func ReadableTASDescriptor() Descriptor {
	return Descriptor{
		Name:    "readable-tas",
		Spec:    spec.ReadableTAS{},
		SeqSpec: spec.ReadableTAS{},
		N:       2,
		K:       1,
		Prop:    func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodTAS)} },
		Dec:     func(i int) []spec.Op { return []spec.Op{spec.MkOp(spec.MethodRead)} },
		D: func(i int, resps []string) int {
			if resps[0] == "0" {
				return i
			}
			return 1 - i
		},
	}
}

// --- Definition 11 validation -------------------------------------------------

// ValidationError reports a Definition 11 violation.
type ValidationError struct {
	Desc   string
	Prefix string
	Detail string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("agreement: %s is not %s-ordering at prefix %s: %s", e.Desc, "k", e.Prefix, e.Detail)
}

// ValidateDefinition11 exhaustively checks Definition 11 for the descriptor
// on bounded sequential executions: for every sequential execution α built
// from proposal invocations in which some process has completed its
// proposals, the set of decisions reachable in ANY continuation (any
// interleaved completion α′, any deciding process i, any nondeterministic
// outcome resolution of α, α′ and β_i) must (a) contain at most K distinct
// winners and (b) only name winners whose proposals are complete at decision
// time.
func ValidateDefinition11(d Descriptor) error {
	v := &validator{d: d, memo: make(map[string][]int)}
	props := make([][]spec.Op, d.N)
	for i := 0; i < d.N; i++ {
		props[i] = d.Prop(i)
	}
	v.props = props
	return v.walk(d.SeqSpec.Init(d.N), make([]int, d.N), make([][]string, d.N), "")
}

type validator struct {
	d     Descriptor
	props [][]spec.Op
	memo  map[string][]int
}

func key(st spec.State, progress []int, resps [][]string) string {
	var b strings.Builder
	b.WriteString(st.Key())
	for i, p := range progress {
		fmt.Fprintf(&b, "|%d:%d:%s", i, p, strings.Join(resps[i], ","))
	}
	return b.String()
}

// walk visits every reachable α; wherever some process has completed its
// proposals, it checks the decision set.
func (v *validator) walk(st spec.State, progress []int, resps [][]string, trail string) error {
	if v.someComplete(progress) {
		decisions := v.decisionSet(st, progress, resps)
		winners := make(map[int]bool)
		for _, ell := range decisions {
			if ell < 0 || ell >= v.d.N {
				return &ValidationError{Desc: v.d.Name, Prefix: trail, Detail: fmt.Sprintf("decision %d out of range", ell)}
			}
			winners[ell] = true
		}
		if len(winners) > v.d.K {
			return &ValidationError{
				Desc:   v.d.Name,
				Prefix: trail,
				Detail: fmt.Sprintf("%d distinct winners %v exceed k=%d", len(winners), winners, v.d.K),
			}
		}
	}
	for i := 0; i < v.d.N; i++ {
		if progress[i] >= len(v.props[i]) {
			continue
		}
		op := v.props[i][progress[i]]
		for _, out := range st.Steps(op) {
			progress[i]++
			resps[i] = append(resps[i], out.Resp)
			err := v.walk(out.Next, progress, resps, trail+fmt.Sprintf(" p%d:%v=%s", i, op, out.Resp))
			resps[i] = resps[i][:len(resps[i])-1]
			progress[i]--
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (v *validator) someComplete(progress []int) bool {
	for i, p := range progress {
		if p == len(v.props[i]) {
			return true
		}
	}
	return false
}

// decisionSet returns every winner reachable from (st, progress): complete
// some interleaving of the remaining proposals for a deciding process (and
// any subset of others), then run its decision sequence.
func (v *validator) decisionSet(st spec.State, progress []int, resps [][]string) []int {
	k := key(st, progress, resps)
	if dec, ok := v.memo[k]; ok {
		return dec
	}
	seen := make(map[int]bool)
	// Decide now, for every process whose proposals are complete. The winner
	// must have invoked at least one proposal operation: Definition 11
	// literally requires invs((α·α′)|ℓ) = prop_ℓ, but the paper's own
	// m-stuttering examples weaken this to invs(α|ℓ) ≠ ε ("and possibly ≠
	// prop_ℓ"), which is what Lemma 12's validity actually needs — process ℓ
	// writes M[ℓ] BEFORE its first proposal invocation, so any winner with
	// at least one invocation has its input visible. A winner with no
	// invocations at all is reported as -2 and caught by the caller.
	for i := 0; i < v.d.N; i++ {
		if progress[i] != len(v.props[i]) {
			continue
		}
		for _, decResps := range v.runDec(st, v.d.Dec(i)) {
			all := append(append([]string{}, resps[i]...), decResps...)
			ell := v.d.D(i, all)
			if ell >= 0 && ell < v.d.N && progress[ell] == 0 {
				ell = -2 // winner never invoked anything: a violation
			}
			seen[ell] = true
		}
	}
	// Or take one more proposal step and recurse.
	for i := 0; i < v.d.N; i++ {
		if progress[i] >= len(v.props[i]) {
			continue
		}
		op := v.props[i][progress[i]]
		for _, out := range st.Steps(op) {
			progress[i]++
			resps[i] = append(resps[i], out.Resp)
			for _, ell := range v.decisionSet(out.Next, progress, resps) {
				seen[ell] = true
			}
			resps[i] = resps[i][:len(resps[i])-1]
			progress[i]--
		}
	}
	out := make([]int, 0, len(seen))
	for ell := range seen {
		out = append(out, ell)
	}
	v.memo[k] = out
	return out
}

// runDec returns the response sequences of every outcome resolution of ops
// run solo from st.
func (v *validator) runDec(st spec.State, ops []spec.Op) [][]string {
	if len(ops) == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for _, o := range st.Steps(ops[0]) {
		for _, rest := range v.runDec(o.Next, ops[1:]) {
			out = append(out, append([]string{o.Resp}, rest...))
		}
	}
	return out
}
