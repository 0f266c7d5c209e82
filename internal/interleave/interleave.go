// Package interleave packs n independent unbounded bit-lanes into a single
// arbitrary-precision word.
//
// Lane i of an n-lane word occupies bit positions i, n+i, 2n+i, 3n+i, ....
// This is the representation used by the fetch&add-based constructions of
// Attiya, Castañeda and Enea (PODC 2024, Sections 3.1 and 3.2), originally
// from the recoverable fetch&add of Nahum et al. (OPODIS 2021): every process
// owns one lane of a shared fetch&add register and can update its lane —
// without bound on the stored value — by adding a delta whose set bits all
// fall inside its own lane.
package interleave

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// Codec maps between compact per-lane values and their interleaved positions
// inside an n-lane word. The zero value is not usable; construct with New.
type Codec struct {
	n int
}

// New returns a codec for words with n interleaved lanes.
func New(n int) (Codec, error) {
	if n < 1 {
		return Codec{}, fmt.Errorf("interleave: lane count must be >= 1, got %d", n)
	}
	return Codec{n: n}, nil
}

// MustNew is like New but panics on an invalid lane count. It is intended for
// callers that have already validated n (for example, a process count checked
// at world construction time).
func MustNew(n int) Codec {
	c, err := New(n)
	if err != nil {
		panic(err)
	}
	return c
}

// Lanes returns the number of lanes n.
func (c Codec) Lanes() int { return c.n }

// BitPos returns the absolute bit position of lane-local bit k of lane i,
// that is k*n + i.
func (c Codec) BitPos(lane, k int) int { return k*c.n + lane }

// Spread expands the compact value v into lane positions of the given lane:
// bit k of v is placed at absolute position k*n + lane. v must be
// non-negative. The result shares no storage with v. It visits only the set
// bits of v, scattering them into one word slice sized up front, so it
// allocates twice (that slice and the big.Int) however many bits v holds.
func (c Codec) Spread(v *big.Int, lane int) *big.Int {
	if v.Sign() < 0 {
		panic("interleave: Spread requires a non-negative value")
	}
	out := new(big.Int)
	if v.Sign() == 0 {
		return out
	}
	words := make([]big.Word, c.BitPos(lane, v.BitLen()-1)/bits.UintSize+1)
	for wi, w := range v.Bits() {
		for w != 0 {
			pos := c.BitPos(lane, wi*bits.UintSize+bits.TrailingZeros(uint(w)))
			words[pos/bits.UintSize] |= 1 << (pos % bits.UintSize)
			w &= w - 1
		}
	}
	return out.SetBits(words)
}

// Lane extracts the compact value of the given lane from an interleaved word:
// absolute bit k*n + lane of word becomes bit k of the result. word must be
// non-negative.
func (c Codec) Lane(word *big.Int, lane int) *big.Int {
	if word.Sign() < 0 {
		panic("interleave: Lane requires a non-negative word")
	}
	out := new(big.Int)
	for pos := lane; pos < word.BitLen(); pos += c.n {
		if word.Bit(pos) == 1 {
			out.SetBit(out, (pos-lane)/c.n, 1)
		}
	}
	return out
}

// DecodeInto writes the compact value of every lane of the non-negative
// interleaved word into out (len(out) must equal Lanes()) and returns out.
// It walks only the set bits of word, machine word by machine word, and never
// allocates; word is only read, so it may be a value shared with other
// readers. Every lane must fit in an int64 (lane-local bits 0..62 only), as
// the wide snapshot's non-negative int64 components always do.
func (c Codec) DecodeInto(word *big.Int, out []int64) []int64 {
	if len(out) != c.n {
		panic(fmt.Sprintf("interleave: DecodeInto needs exactly %d lane slots, got %d", c.n, len(out)))
	}
	if word.Sign() < 0 {
		panic("interleave: DecodeInto requires a non-negative word")
	}
	clear(out)
	for wi, w := range word.Bits() {
		for w != 0 {
			pos := wi*bits.UintSize + bits.TrailingZeros(uint(w))
			k := pos / c.n
			if k >= 63 {
				panic(fmt.Sprintf("interleave: DecodeInto: lane %d does not fit an int64", pos%c.n))
			}
			out[pos%c.n] |= 1 << k
			w &= w - 1
		}
	}
	return out
}

// Delta returns the fetch&add delta that changes lane i of a word currently
// holding the compact value from in that lane so that it holds to instead:
// Spread(to, lane) - Spread(from, lane). Adding the delta to a word whose
// lane i equals from yields a word whose lane i equals to and whose other
// lanes are untouched; this is exactly the posAdj-negAdj update of the
// snapshot construction (paper Section 3.2).
func (c Codec) Delta(from, to *big.Int, lane int) *big.Int {
	d := c.Spread(to, lane)
	return d.Sub(d, c.Spread(from, lane))
}

// UnaryDelta returns the compact lane delta that raises a unary-encoded lane
// from value `from` to value `to` (to > from >= 0): bits from+1..to. Spread
// it into the process's lane and fetch&add the result, as in paper Section
// 3.1 step 2.
func UnaryDelta(from, to int) *big.Int {
	if to <= from || from < 0 {
		panic(fmt.Sprintf("interleave: UnaryDelta requires 0 <= from < to, got from=%d to=%d", from, to))
	}
	out := new(big.Int)
	for k := from + 1; k <= to; k++ {
		out.SetBit(out, k, 1)
	}
	return out
}

// The delta memos cache the spread big.Ints of common small lane updates.
// They are PROCESS-GLOBAL, not per-codec: within one register a raising lane
// never repeats a (from, to) pair and an element bit is added once, so a
// per-register cache could never hit — the hits come from siblings (the S
// shard cores of a sharded object share lane geometry and value domain, and
// re-walk the same deltas) and from same-shape registers elsewhere in the
// process. Cached values are published once and never mutated afterwards;
// FetchAdd neither retains nor modifies its delta argument, so sharing one
// *big.Int across operations, registers and processes is safe.
var (
	unaryDeltas sync.Map // unaryDeltaKey -> *big.Int (Spread(UnaryDelta(from,to), lane))
	bitDeltas   sync.Map // int bit position -> *big.Int (single absolute bit)
)

// unaryDeltaKey identifies a spread unary delta: the result depends on the
// lane count n as well as the lane and value range.
type unaryDeltaKey struct{ n, lane, from, to int }

// memoMaxTo bounds the unary memo: deltas whose target value exceeds it are
// built fresh, keeping each register shape to at most ~memoMaxTo^2/2 small
// cached entries per lane.
const memoMaxTo = 128

// SpreadUnaryDelta returns Spread(UnaryDelta(from, to), lane), memoized for
// small targets so the wide max-register write path stops allocating per
// operation once a sibling register (e.g. another shard) has walked the same
// raise. The returned value is shared and must not be mutated.
func (c Codec) SpreadUnaryDelta(lane, from, to int) *big.Int {
	if to > memoMaxTo {
		return c.Spread(UnaryDelta(from, to), lane)
	}
	key := unaryDeltaKey{n: c.n, lane: lane, from: from, to: to}
	if d, ok := unaryDeltas.Load(key); ok {
		return d.(*big.Int)
	}
	d, _ := unaryDeltas.LoadOrStore(key, c.Spread(UnaryDelta(from, to), lane))
	return d.(*big.Int)
}

// memoMaxBitPos bounds the single-bit memo (absolute positions, so it covers
// element*lanes+lane for the grow-only set's common small elements).
const memoMaxBitPos = 4096

// SpreadBitDelta returns the delta with the single absolute bit k*n + lane
// set — lane-local bit k of the given lane, the grow-only set's element
// delta — memoized for small positions (a single-bit word depends only on
// the absolute position, so the cache is shared across codecs). The returned
// value is shared and must not be mutated.
func (c Codec) SpreadBitDelta(lane, k int) *big.Int {
	pos := c.BitPos(lane, k)
	if pos > memoMaxBitPos {
		out := new(big.Int)
		return out.SetBit(out, pos, 1)
	}
	if d, ok := bitDeltas.Load(pos); ok {
		return d.(*big.Int)
	}
	fresh := new(big.Int)
	fresh.SetBit(fresh, pos, 1)
	d, _ := bitDeltas.LoadOrStore(pos, fresh)
	return d.(*big.Int)
}

// smallInts caches the plain big.Int encodings of small non-negative deltas
// (the wide counter's Add argument). Shared and immutable.
var smallInts sync.Map // int64 -> *big.Int

// SmallInt returns a shared immutable *big.Int holding v (>= 0), cached for
// small values. The returned value must not be mutated.
func SmallInt(v int64) *big.Int {
	if v < 0 || v > memoMaxTo {
		return big.NewInt(v)
	}
	if d, ok := smallInts.Load(v); ok {
		return d.(*big.Int)
	}
	d, _ := smallInts.LoadOrStore(v, big.NewInt(v))
	return d.(*big.Int)
}
