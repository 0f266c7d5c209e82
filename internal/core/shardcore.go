package core

import (
	"fmt"
	"math/bits"
	"sync"

	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// This file provides the shard-friendly cores used by internal/shard: monotone
// objects whose every operation is a single fetch&add step on one shared
// register. Like FAMaxRegister and FASnapshot, each operation's unique
// fetch&add is its linearization point, so strong linearizability is immediate
// (and model-checked in the tests). The sharded layer stripes writes across S
// independent instances and combines reads; see internal/shard for the
// monotone-combination argument.

// FACounter is a wait-free strongly-linearizable monotone (increment-only)
// counter from a single fetch&add register: Inc is fetch&add(R, 1), Add(k) is
// fetch&add(R, k), and Read is fetch&add(R, 0). It is the increment-only
// specialisation of the paper's observation that fetch&add directly gives
// single-step counting (cf. Theorem 9's readable fetch&increment, which needs
// test&set only because it must also RETURN the pre-increment value); a
// monotone counter's inc returns nothing, so one consensus-number-2 primitive
// suffices with no construction at all.
//
// With WithCounterBound the register becomes a single machine word
// (prim.FetchAddInt — hardware XADD) when the declared maximum fits 62 bits;
// every operation is still one fetch&add on one register, so the
// linearization argument is unchanged. Operations that would push the count
// past the packed capacity panic (the value is unrepresentable).
type FACounter struct {
	w     prim.World
	r     prim.FetchAdd    // wide engine; nil when packed
	ri    prim.FetchAddInt // packed engine; nil when wide
	bound int64            // -1: unbounded (wide); >= 0: declared max count
}

// maxPackedCount is the largest count the packed counter represents. Keeping
// it below 2^62 leaves headroom so that a single in-range Add can never wrap
// the int64 sign bit before the overflow check.
const maxPackedCount = int64(1)<<62 - 1

// CounterOption configures NewFACounter.
type CounterOption func(*FACounter)

// WithCounterBound declares that the counter value never exceeds bound
// (>= 0). Any bound up to 2^62-1 is machine-word representable, so the
// constructor selects the packed engine; larger bounds fall back to the wide
// register. Unlike the max-register and set bounds, the declaration is a
// capacity promise used only for engine selection, not a per-operation
// constraint: an increment has no value to check against a domain (and a
// shard of a sharded counter cannot see the global count at all). The packed
// engine panics only when the count would exceed its 2^62-1 capacity.
func WithCounterBound(bound int64) CounterOption {
	if bound < 0 {
		panic(fmt.Sprintf("core: WithCounterBound(%d): bound must be non-negative", bound))
	}
	return func(c *FACounter) { c.bound = bound }
}

// NewFACounter allocates the register name+".R"; the counter starts at 0.
func NewFACounter(w prim.World, name string, opts ...CounterOption) *FACounter {
	c := &FACounter{w: w, bound: -1}
	for _, o := range opts {
		o(c)
	}
	if c.bound >= 0 && c.bound <= maxPackedCount {
		c.ri = w.FetchAddInt(name+".R", 0)
	} else {
		c.r = w.FetchAdd(name + ".R")
	}
	return c
}

// Packed reports whether the register is the packed machine word.
func (c *FACounter) Packed() bool { return c.ri != nil }

// Inc increments the counter.
func (c *FACounter) Inc(t prim.Thread) {
	if c.ri != nil {
		if prev := c.ri.FetchAddInt(t, 1); prev >= maxPackedCount {
			panic("core: FACounter.Inc: packed counter overflow")
		}
	} else {
		c.r.FetchAdd(t, one)
	}
	prim.MarkLinPoint(c.w, t)
}

// Add adds k (which must be non-negative) to the counter.
func (c *FACounter) Add(t prim.Thread, k int64) {
	if k < 0 {
		panic(fmt.Sprintf("core: FACounter.Add(%d): deltas must be non-negative", k))
	}
	if c.ri != nil {
		if k > maxPackedCount {
			panic(fmt.Sprintf("core: FACounter.Add(%d): delta exceeds the packed capacity", k))
		}
		if prev := c.ri.FetchAddInt(t, k); prev > maxPackedCount-k {
			panic(fmt.Sprintf("core: FACounter.Add(%d): packed counter overflow", k))
		}
	} else {
		c.r.FetchAdd(t, interleave.SmallInt(k))
	}
	prim.MarkLinPoint(c.w, t)
}

// Read returns the counter value.
func (c *FACounter) Read(t prim.Thread) int64 {
	var v int64
	if c.ri != nil {
		v = c.ri.FetchAddInt(t, 0)
	} else {
		v = c.r.FetchAdd(t, zero).Int64()
	}
	prim.MarkLinPoint(c.w, t)
	return v
}

// FAGSet is a wait-free strongly-linearizable grow-only set from a single
// fetch&add register, for n processes and non-negative elements.
//
// Element x of process i occupies bit x*n+i of the shared register (lane-local
// bit x of lane i, in the interleaved layout of FAMaxRegister/FASnapshot): x
// is a member iff any lane has bit x set. Add(x) sets the caller's bit with
// one fetch&add the first time the caller adds x, and performs fetch&add(R, 0)
// on repeats — per-process once-bits make the non-idempotent fetch&add encode
// the idempotent add, exactly as the unary max-register write only ever adds
// fresh bits. Has and Elems are fetch&add(R, 0) followed by local decoding.
//
// Every operation performs exactly one fetch&add, which is its linearization
// point. Unlike the Algorithm 1 GSet (Theorems 3-4), which pays a snapshot
// scan plus an operation-graph linearization per operation, every FAGSet
// operation is O(1) shared steps — the shard-friendly trade: it implements
// only the grow-only set rather than every simple type.
//
// With WithGSetBound the register becomes a single machine word when the
// element bitmap fits (lanes x (bound+1) <= 63 bits): one hardware XADD
// register instead of the wide one, same single-fetch&add linearization
// points; Add panics on elements beyond the bound (unrepresentable). When the
// encoding does not fit, the constructor falls back to the wide register.
type FAGSet struct {
	n      int
	w      prim.World
	codec  interleave.Codec
	r      prim.FetchAdd    // wide engine; nil when packed
	rp     prim.FetchAddInt // packed engine; nil when wide
	pc     interleave.Packed
	bound  int64            // -1: unbounded (wide); >= 0: declared max element
	laneOf func(id int) int // process ID -> lane index (identity by default)

	// added[i] records which elements the process on lane i has already
	// inserted; it is a process-local once-guard (written only by that
	// process), not shared state. The mutex protects nothing across processes
	// — each map is single-writer — but keeps the race detector satisfied
	// about map growth; reads of membership go through the shared register
	// only.
	added []map[int64]struct{}
	mu    []sync.Mutex
}

// GSetOption configures NewFAGSet.
type GSetOption func(*FAGSet)

// WithGSetLaneMap routes process IDs to lane indices in [0, n), exactly as
// WithLaneMap does for the max register: the sharded layer maps its subset of
// writers compactly so each shard's register is only as wide as its own
// writer count requires. The map must be injective over the writing
// processes; thread identity (and so sim scheduling) is unaffected.
func WithGSetLaneMap(laneOf func(id int) int) GSetOption {
	return func(s *FAGSet) { s.laneOf = laneOf }
}

// WithGSetBound declares that every element is in [0, bound], and makes Add
// panic on elements beyond it (like negatives); Has and Elems simply never
// find such elements. When the element bitmap fits a machine word
// (n x (bound+1) <= 63 bits) the construction runs over a single
// prim.FetchAddInt register; otherwise it falls back to the wide register.
// The bound is enforced either way, so behaviour does not depend on which
// engine was selected (a sharded object whose shards host different lane
// counts may mix engines).
func WithGSetBound(bound int64) GSetOption {
	if bound < 0 {
		panic(fmt.Sprintf("core: WithGSetBound(%d): bound must be non-negative", bound))
	}
	return func(s *FAGSet) { s.bound = bound }
}

// NewFAGSet allocates the construction for n lanes using a single fetch&add
// register named name+".R".
func NewFAGSet(w prim.World, name string, n int, opts ...GSetOption) *FAGSet {
	s := &FAGSet{
		n:      n,
		w:      w,
		codec:  interleave.MustNew(n),
		bound:  -1,
		laneOf: func(id int) int { return id },
		added:  make([]map[int64]struct{}, n),
		mu:     make([]sync.Mutex, n),
	}
	for i := range s.added {
		s.added[i] = make(map[int64]struct{})
	}
	for _, o := range opts {
		o(s)
	}
	// bound < 63 before the int conversion: a packable lane is at most 63
	// bits, and a huge int64 bound must not truncate on 32-bit platforms. A
	// bound that does not pack stays declared (and enforced) over the wide
	// register.
	if s.bound >= 0 && s.bound < 63 {
		if pc, ok := interleave.NewPacked(n, int(s.bound)+1); ok {
			s.pc = pc
			s.rp = w.FetchAddInt(name+".R", 0)
			return s
		}
	}
	s.r = w.FetchAdd(name + ".R")
	return s
}

// Packed reports whether the register is the packed machine word.
func (s *FAGSet) Packed() bool { return s.rp != nil }

// Add inserts x (which must be non-negative) on behalf of t.
func (s *FAGSet) Add(t prim.Thread, x int64) {
	if x < 0 {
		panic(fmt.Sprintf("core: FAGSet.Add(%d): elements must be non-negative", x))
	}
	if s.bound >= 0 && x > s.bound {
		panic(fmt.Sprintf("core: FAGSet.Add(%d): element exceeds the declared bound %d", x, s.bound))
	}
	i := s.laneOf(t.ID())
	s.mu[i].Lock()
	_, dup := s.added[i][x]
	if !dup {
		s.added[i][x] = struct{}{}
	}
	s.mu[i].Unlock()
	if dup {
		if s.rp != nil {
			s.rp.FetchAddInt(t, 0)
		} else {
			s.r.FetchAdd(t, zero)
		}
		prim.MarkLinPoint(s.w, t)
		return
	}
	if s.rp != nil {
		s.rp.FetchAddInt(t, s.pc.Spread(int64(1)<<x, i))
	} else {
		s.r.FetchAdd(t, s.codec.SpreadBitDelta(i, int(x)))
	}
	prim.MarkLinPoint(s.w, t)
}

// Has reports membership of x.
func (s *FAGSet) Has(t prim.Thread, x int64) bool {
	if s.rp != nil {
		word := s.rp.FetchAddInt(t, 0)
		prim.MarkLinPoint(s.w, t)
		if x < 0 || x > s.bound {
			return false
		}
		for i := 0; i < s.n; i++ {
			if s.pc.Lane(word, i)&(int64(1)<<x) != 0 {
				return true
			}
		}
		return false
	}
	word := s.r.FetchAdd(t, zero)
	prim.MarkLinPoint(s.w, t)
	// Out-of-domain queries are misses on the wide path too (and the bound
	// check keeps a huge x from overflowing the int bit index below).
	if x < 0 || (s.bound >= 0 && x > s.bound) {
		return false
	}
	for i := 0; i < s.n; i++ {
		if word.Bit(int(x)*s.n+i) == 1 {
			return true
		}
	}
	return false
}

// Elems returns the members in ascending order.
func (s *FAGSet) Elems(t prim.Thread) []int64 {
	if s.rp != nil {
		word := s.rp.FetchAddInt(t, 0)
		prim.MarkLinPoint(s.w, t)
		var union int64
		for i := 0; i < s.n; i++ {
			union |= s.pc.Lane(word, i)
		}
		var out []int64
		for x := int64(0); union != 0; x, union = x+1, union>>1 {
			if union&1 == 1 {
				out = append(out, x)
			}
		}
		return out
	}
	word := s.r.FetchAdd(t, zero)
	prim.MarkLinPoint(s.w, t)
	// Walk only the set bits, machine word by machine word; positions rise,
	// so the elements they name come out ascending with duplicates adjacent.
	var out []int64
	for wi, w := range word.Bits() {
		for w != 0 {
			x := int64((wi*bits.UintSize + bits.TrailingZeros(uint(w))) / s.n)
			if len(out) == 0 || out[len(out)-1] != x {
				out = append(out, x)
			}
			w &= w - 1
		}
	}
	return out
}
