// Package core implements the paper's constructions:
//
//   - Theorem 1: wait-free strongly-linearizable max register from fetch&add
//     (FAMaxRegister).
//   - Theorem 2: wait-free strongly-linearizable atomic snapshot from
//     fetch&add (FASnapshot).
//   - Theorems 3/4: wait-free strongly-linearizable simple types from atomic
//     snapshot (SimpleObject, Algorithm 1), hence from fetch&add.
//   - Theorem 5: wait-free strongly-linearizable readable test&set from
//     test&set (ReadableTAS).
//   - Theorem 6, Corollaries 7–8: wait-free strongly-linearizable readable
//     multi-shot test&set from test&set and max register (MultiShotTAS).
//   - Theorem 9: lock-free strongly-linearizable readable fetch&increment
//     from test&set (FetchInc).
//   - Theorem 10: lock-free strongly-linearizable set from test&set
//     (TASSet, Algorithm 2).
//
// Every construction is written against internal/prim interfaces and runs
// unchanged under real concurrency (prim.RealWorld) and under the
// model-checking scheduler (sim.World). Construction functions take the
// world, a base name for the shared objects they allocate, and — where the
// algorithm needs per-process lanes — the number of processes n.
package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"stronglin/internal/interleave"
	"stronglin/internal/prim"
)

// FAMaxRegister is the wait-free strongly-linearizable max register of
// Section 3.1, built from a single unbounded fetch&add register R.
//
// Process i stores the largest value it has written, in unary, in bit lane
// i of R (bits i, n+i, 2n+i, ...): value K occupies lane-local bits 1..K.
// WriteMax(K) raises the caller's lane from its previous value to K with a
// single fetch&add; smaller-or-equal writes perform fetch&add(R, 0), which
// the paper keeps so that every operation has a fetch&add linearization
// point. ReadMax is fetch&add(R, 0) followed by local decoding.
//
// Every operation performs exactly one fetch&add, which is its linearization
// point; strong linearizability is immediate (and model-checked in the
// tests).
//
// With WithMaxRegBound the register becomes a single machine word when the
// encoding fits (lanes x (bound+1) <= 63 bits): the same unary lanes, packed
// into a hardware XADD register (prim.FetchAddInt) instead of the
// arbitrary-precision fetch&add. Each operation is still exactly one
// fetch&add on one register, so the linearization argument is unchanged; only
// the per-operation cost drops (no big.Int arithmetic, no allocation). When
// the bound does not fit, the constructor silently falls back to the wide
// register.
type FAMaxRegister struct {
	n      int
	codec  interleave.Codec
	w      prim.World
	r      prim.FetchAdd    // wide engine; nil when packed
	rp     prim.FetchAddInt // packed engine; nil when wide
	pc     interleave.Packed
	bound  int64            // -1: unbounded (wide); >= 0: declared max value
	laneOf func(id int) int // process ID -> lane index (identity by default)
	prev   []int64          // prev[i] is written only by the process on lane i
	noopFA bool             // perform fetch&add(R,0) on no-op writes (paper step 1); tests clear it
}

var _ prim.MaxReg = (*FAMaxRegister)(nil)

// MaxRegOption configures NewFAMaxRegister.
type MaxRegOption func(*FAMaxRegister)

// WithLaneMap routes process IDs to lane indices in [0, n). The construction
// then needs only as many lanes as distinct WRITERS rather than one per
// process ID, which keeps the unary register narrow — the sharded layer maps
// its subset of lanes compactly (id/S), shrinking every shard's register
// width (and so the per-operation fetch&add cost) by the shard count. The
// map must be injective over the processes that actually write; it does not
// touch thread identity, so scheduling and trace attribution in the
// simulated world are unaffected.
func WithLaneMap(laneOf func(id int) int) MaxRegOption {
	return func(m *FAMaxRegister) { m.laneOf = laneOf }
}

// WithMaxRegBound declares that every written value is in [0, bound], and
// makes WriteMax panic on values beyond it (like negatives). When the unary
// encoding of the bounded lanes fits a machine word (n x (bound+1) <= 63
// bits), the construction runs over a single prim.FetchAddInt register — the
// packed fast path; when it does not fit, the constructor falls back to the
// wide register. The bound is enforced either way, so behaviour does not
// depend on which engine was selected (a sharded object whose shards host
// different lane counts may mix engines).
func WithMaxRegBound(bound int64) MaxRegOption {
	if bound < 0 {
		panic(fmt.Sprintf("core: WithMaxRegBound(%d): bound must be non-negative", bound))
	}
	return func(m *FAMaxRegister) { m.bound = bound }
}

// NewFAMaxRegister allocates the construction for n processes using a single
// fetch&add register named name+".R".
func NewFAMaxRegister(w prim.World, name string, n int, opts ...MaxRegOption) *FAMaxRegister {
	m := &FAMaxRegister{
		n:      n,
		codec:  interleave.MustNew(n),
		w:      w,
		bound:  -1,
		laneOf: func(id int) int { return id },
		prev:   make([]int64, n),
		noopFA: true,
	}
	for _, o := range opts {
		o(m)
	}
	// A packable lane is at most 63 bits wide, so any bound >= 63 can never
	// pack; checking before the int conversion keeps a huge int64 bound from
	// truncating on 32-bit platforms. A bound that does not pack stays
	// declared (and enforced) over the wide register.
	if m.bound >= 0 && m.bound < 63 {
		if pc, ok := interleave.NewPacked(n, int(m.bound)+1); ok {
			m.pc = pc
			m.rp = w.FetchAddInt(name+".R", 0)
			return m
		}
	}
	m.r = w.FetchAdd(name + ".R")
	return m
}

// Packed reports whether the register is the packed machine word.
func (m *FAMaxRegister) Packed() bool { return m.rp != nil }

// WriteMax writes v (which must be non-negative) on behalf of t.
func (m *FAMaxRegister) WriteMax(t prim.Thread, v int64) {
	if v < 0 {
		panic(fmt.Sprintf("core: FAMaxRegister.WriteMax(%d): values must be non-negative", v))
	}
	if m.bound >= 0 && v > m.bound {
		panic(fmt.Sprintf("core: FAMaxRegister.WriteMax(%d): value exceeds the declared bound %d", v, m.bound))
	}
	i := m.laneOf(t.ID())
	if v <= m.prev[i] {
		if m.noopFA {
			if m.rp != nil {
				m.rp.FetchAddInt(t, 0)
			} else {
				m.r.FetchAdd(t, zero)
			}
			prim.MarkLinPoint(m.w, t)
		}
		return
	}
	if m.rp != nil {
		m.rp.FetchAddInt(t, m.pc.Spread(interleave.PackedUnaryDelta(int(m.prev[i]), int(v)), i))
	} else {
		m.r.FetchAdd(t, m.codec.SpreadUnaryDelta(i, int(m.prev[i]), int(v)))
	}
	prim.MarkLinPoint(m.w, t)
	m.prev[i] = v
}

// ReadMax returns the largest value written so far.
func (m *FAMaxRegister) ReadMax(t prim.Thread) int64 {
	if m.rp != nil {
		word := m.rp.FetchAddInt(t, 0)
		prim.MarkLinPoint(m.w, t)
		return m.decodePacked(word)
	}
	word := m.r.FetchAdd(t, zero)
	prim.MarkLinPoint(m.w, t)
	return m.decode(word)
}

// decode returns the largest lane value of the wide word in O(1), whatever
// the values: lane i's value is the lane-local index k_i of its highest set
// bit, at absolute position k_i·n+i. Since 0 <= i < n, position order is
// (k, i) order, so the word's top set bit k·n+i belongs to a lane with the
// largest k, and (BitLen-1)/n recovers that k. The argument holds for any
// non-negative word, unary prefixes or not; the empty word reads 0. word is
// only read, so it may be the world's shared copy-on-write value.
func (m *FAMaxRegister) decode(word *big.Int) int64 {
	if word.Sign() == 0 {
		return 0
	}
	return int64((word.BitLen() - 1) / m.n)
}

func (m *FAMaxRegister) decodePacked(word int64) int64 {
	max := int64(0)
	for i := 0; i < m.n; i++ {
		if v := int64(interleave.PackedUnaryValue(m.pc.Lane(word, i))); v > max {
			max = v
		}
	}
	return max
}

// Width returns the current bit length of the shared register — the cost the
// paper's discussion (Section 6) highlights ("extremely large values in a
// single variable"). It reads R with a fetch&add(0) step.
func (m *FAMaxRegister) Width(t prim.Thread) int {
	if m.rp != nil {
		return bits.Len64(uint64(m.rp.FetchAddInt(t, 0)))
	}
	return m.r.FetchAdd(t, zero).BitLen()
}

// zero and one are immutable fetch&add deltas.
var (
	zero = new(big.Int)
	one  = big.NewInt(1)
)
