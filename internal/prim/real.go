package prim

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// RealWorld allocates primitives backed by sync/atomic for use under genuine
// hardware concurrency (stress tests, benchmarks). Object names must be
// unique, and a block (FetchAddInts, AnyRegisters) named "A" of n objects
// reserves "A" and every element name "A[0]" .. "A[n-1]" — while claiming
// only the one name and backing the elements with one flat slice, so a block
// costs O(1) names and one allocation however large it is. Any overlap
// between blocks and individually named objects panics; allocation is safe
// for concurrent use.
type RealWorld struct {
	mu    sync.Mutex
	names map[string]struct{}
	// blocks maps each block's name to its length: name[i] is reserved for
	// every i below it.
	blocks map[string]int
	// minIndex maps base to the smallest i of an individually claimed
	// base[i], so a block over base can check its whole range in O(1).
	minIndex map[string]int
}

var _ World = (*RealWorld)(nil)
var _ Awaiter = (*RealWorld)(nil)

// AwaitAny implements Awaiter by spinning on the register, yielding the
// processor between probes. The real scheduler provides the weak fairness the
// simulated world's conditional step models (see Awaiter): the writer that
// makes ready true is a running goroutine, so the spin terminates.
func (w *RealWorld) AwaitAny(t Thread, r AnyRegister, ready func(any) bool) any {
	for {
		if v := r.ReadAny(t); ready(v) {
			return v
		}
		runtime.Gosched()
	}
}

// NewRealWorld returns an empty real world.
func NewRealWorld() *RealWorld {
	return &RealWorld{
		names:    make(map[string]struct{}),
		blocks:   make(map[string]int),
		minIndex: make(map[string]int),
	}
}

func (w *RealWorld) claim(name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.claimLocked(name)
}

func (w *RealWorld) claimLocked(name string) {
	if _, dup := w.names[name]; dup {
		panicDuplicate(name)
	}
	base, i, indexed := splitIndex(name)
	if indexed {
		if n, ok := w.blocks[base]; ok && i < n {
			panicDuplicate(name)
		}
		if m, ok := w.minIndex[base]; !ok || i < m {
			w.minIndex[base] = i
		}
	}
	w.names[name] = struct{}{}
}

// claimBlock reserves name and name[0] .. name[n-1] (see RealWorld).
func (w *RealWorld) claimBlock(name string, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m, ok := w.minIndex[name]; ok && m < n {
		panicDuplicate(indexName(name, m))
	}
	w.claimLocked(name)
	w.blocks[name] = n
}

func panicDuplicate(name string) {
	panic(fmt.Sprintf("prim: duplicate base object name %q", name))
}

// Register allocates an atomic read/write register.
func (w *RealWorld) Register(name string, init int64) Register {
	w.claim(name)
	r := &realRegister{}
	r.v.Store(init)
	return r
}

// AnyRegister allocates an atomic register holding opaque values.
func (w *RealWorld) AnyRegister(name string, init any) AnyRegister {
	w.claim(name)
	r := &realAnyRegister{}
	r.v.Store(init)
	return r
}

// TAS allocates a readable one-shot test&set object.
func (w *RealWorld) TAS(name string) ReadableTAS {
	w.claim(name)
	return &realTAS{}
}

// TAS2 allocates a 2-process test&set restricted to processes p and q.
func (w *RealWorld) TAS2(name string, p, q int) ReadableTAS {
	w.claim(name)
	return &tas2{inner: &realTAS{}, p: p, q: q, name: name}
}

// FetchAdd allocates an unbounded-width fetch&add register, initially 0.
func (w *RealWorld) FetchAdd(name string) FetchAdd {
	w.claim(name)
	r := &realFetchAdd{}
	r.val.Store(new(big.Int))
	return r
}

// FetchAddInt allocates a machine-word fetch&add register.
func (w *RealWorld) FetchAddInt(name string, init int64) FetchAddInt {
	w.claim(name)
	f := &realFetchAddInt{}
	f.v.Store(init)
	return f
}

// MaxReg allocates an atomic max register.
func (w *RealWorld) MaxReg(name string, init int64) MaxReg {
	w.claim(name)
	m := &realMaxReg{}
	m.v.Store(init)
	return m
}

// Swap allocates a readable swap register.
func (w *RealWorld) Swap(name string, init int64) ReadableSwap {
	w.claim(name)
	s := &realSwap{}
	s.v.Store(init)
	return s
}

// CAS allocates a compare&swap register.
func (w *RealWorld) CAS(name string, init int64) CAS {
	w.claim(name)
	c := &realCAS{}
	c.v.Store(init)
	return c
}

// CASCell allocates a compare&swap cell holding an opaque value.
func (w *RealWorld) CASCell(name string, init any) CASCell {
	w.claim(name)
	c := &realCASCell{}
	c.v.Store(init)
	return c
}

type realRegister struct{ v atomic.Int64 }

func (r *realRegister) Read(Thread) int64       { return r.v.Load() }
func (r *realRegister) Write(_ Thread, v int64) { r.v.Store(v) }

type realAnyRegister struct{ v atomic.Value }

func (r *realAnyRegister) ReadAny(Thread) any       { return r.v.Load() }
func (r *realAnyRegister) WriteAny(_ Thread, v any) { r.v.Store(v) }

type realTAS struct{ v atomic.Int64 }

func (r *realTAS) TestAndSet(Thread) int64 { return r.v.Swap(1) }
func (r *realTAS) Read(Thread) int64       { return r.v.Load() }

// realFetchAdd is copy-on-write: the current value is an immutable big.Int
// behind an atomic pointer. Mutating fetch&adds serialise on the mutex and
// publish a fresh value; a read — fetch&add(0), the only way the paper's
// constructions read the register — is a single atomic pointer load (its
// linearization point), taking no lock and copying nothing. Published values
// are never modified afterwards, which is why handing the same *big.Int to
// every concurrent reader is safe (the FetchAdd contract forbids callers from
// mutating the returned value).
type realFetchAdd struct {
	mu  sync.Mutex // serialises mutating fetch&adds
	val atomic.Pointer[big.Int]
}

func (r *realFetchAdd) FetchAdd(_ Thread, delta *big.Int) *big.Int {
	if delta.Sign() == 0 {
		return r.val.Load()
	}
	r.mu.Lock()
	prev := r.val.Load()
	r.val.Store(new(big.Int).Add(prev, delta))
	r.mu.Unlock()
	return prev
}

type realFetchAddInt struct{ v atomic.Int64 }

func (r *realFetchAddInt) FetchAddInt(_ Thread, delta int64) int64 {
	if delta == 0 {
		// A read — fetch&add(0), the constructions' only read of the register —
		// is a plain atomic load rather than a lock-prefixed XADD: it
		// participates in the same total modification order (its linearization
		// point is the load), like the copy-on-write wide register's read.
		return r.v.Load()
	}
	return r.v.Add(delta) - delta
}

type realMaxReg struct{ v atomic.Int64 }

func (r *realMaxReg) WriteMax(_ Thread, v int64) {
	for {
		cur := r.v.Load()
		if v <= cur || r.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (r *realMaxReg) ReadMax(Thread) int64 { return r.v.Load() }

type realSwap struct{ v atomic.Int64 }

func (r *realSwap) Swap(_ Thread, v int64) int64 { return r.v.Swap(v) }
func (r *realSwap) Read(Thread) int64            { return r.v.Load() }

type realCAS struct{ v atomic.Int64 }

func (r *realCAS) Read(Thread) int64 { return r.v.Load() }
func (r *realCAS) CompareAndSwap(_ Thread, old, new int64) bool {
	return r.v.CompareAndSwap(old, new)
}

type realCASCell struct{ v atomic.Value }

func (r *realCASCell) Load(Thread) any { return r.v.Load() }
func (r *realCASCell) CompareAndSwap(_ Thread, old, new any) bool {
	return r.v.CompareAndSwap(old, new)
}

// tas2 enforces the 2-process access discipline of a 2-process test&set.
type tas2 struct {
	inner ReadableTAS
	p, q  int
	name  string
}

func (t *tas2) check(th Thread) {
	if id := th.ID(); id != t.p && id != t.q {
		panic(fmt.Sprintf("prim: process %d applied an operation to 2-process test&set %q owned by processes %d and %d", id, t.name, t.p, t.q))
	}
}

func (t *tas2) TestAndSet(th Thread) int64 {
	t.check(th)
	return t.inner.TestAndSet(th)
}

func (t *tas2) Read(th Thread) int64 {
	t.check(th)
	return t.inner.Read(th)
}

// RealThread is a Thread for use with RealWorld.
type RealThread int

// ID returns the process index.
func (t RealThread) ID() int { return int(t) }
