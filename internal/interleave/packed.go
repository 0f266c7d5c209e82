package interleave

import (
	"fmt"
	"math"
	"math/bits"
)

// Packed is the bounded, machine-word counterpart of Codec: it packs n lanes
// of width bits each into a single non-negative int64, lane i occupying the
// contiguous bit field [i*width, (i+1)*width).
//
// The wide Codec interleaves lanes bit-by-bit because lanes are unbounded —
// no contiguous field assignment works when any lane can grow forever. Once a
// constructor declares a bound, the lanes become fixed-width fields and the
// layouts are equivalent: lanes still occupy disjoint bit sets, every update
// still adds only bits that are currently 0 inside the updater's own field
// (unary raises and element once-bits), so a fetch&add never carries across a
// lane boundary and the single-fetch&add linearization arguments of the wide
// constructions (paper Sections 3.1-3.2) transfer unchanged. What changes is
// the substrate: the register is a hardware XADD word (prim.FetchAddInt)
// instead of a mutex-guarded big.Int.
//
// The zero value is not usable; construct with NewPacked.
type Packed struct {
	n     int
	width int
	mask  int64 // (1 << width) - 1
}

// packedBits is the bit budget of a packed word: an int64 must stay
// non-negative (bit 63 is the sign), so lanes may use bits 0..62.
const packedBits = 63

// NewPacked returns a codec for n lanes of width bits each, or ok=false when
// the word does not fit the machine-word budget (n*width > 63) — the caller's
// cue to fall back to the wide Codec.
func NewPacked(n, width int) (Packed, bool) {
	if n < 1 || width < 1 || n*width > packedBits {
		return Packed{}, false
	}
	return Packed{n: n, width: width, mask: (int64(1) << width) - 1}, true
}

// MustNewPacked is like NewPacked but panics when the word does not fit. It
// is intended for callers that have already checked the budget.
func MustNewPacked(n, width int) Packed {
	p, ok := NewPacked(n, width)
	if !ok {
		panic(fmt.Sprintf("interleave: %d lanes x %d bits exceed the %d-bit packed word", n, width, packedBits))
	}
	return p
}

// Lanes returns the number of lanes n.
func (p Packed) Lanes() int { return p.n }

// Spread places the compact lane value v (in [0, 2^width)) into the given
// lane's field: the packed analogue of Codec.Spread.
func (p Packed) Spread(v int64, lane int) int64 {
	if v < 0 || v > p.mask {
		panic(fmt.Sprintf("interleave: packed Spread value %d outside [0, %d]", v, p.mask))
	}
	return v << (lane * p.width)
}

// Lane extracts the compact value of the given lane: the packed analogue of
// Codec.Lane. word must be non-negative.
func (p Packed) Lane(word int64, lane int) int64 {
	if word < 0 {
		panic("interleave: packed Lane requires a non-negative word")
	}
	return (word >> (lane * p.width)) & p.mask
}

// FieldWidth returns the number of bits a binary field needs to hold every
// value in [0, maxValue]: bits.Len64(maxValue), but at least 1 so that a
// degenerate all-zero domain still occupies a real field. It is the width a
// bounded-component snapshot passes to NewPacked. maxValue must be
// non-negative.
func FieldWidth(maxValue int64) int {
	if maxValue < 0 {
		panic(fmt.Sprintf("interleave: FieldWidth requires a non-negative maxValue, got %d", maxValue))
	}
	if maxValue == 0 {
		return 1
	}
	return bits.Len64(uint64(maxValue))
}

// MaxFieldBound returns the largest maxValue whose binary-field encoding
// packs for n lanes — the inverse of the NewPacked(n, FieldWidth(maxValue))
// fit check, built on the same bit budget so bound-sizing callers can never
// desynchronize from the engine. It returns 0 when not even a 1-bit field
// fits (n > 63; note maxValue 0 itself still needs a 1-bit field, so 0 also
// means "nothing packs").
func MaxFieldBound(n int) int64 {
	if n < 1 {
		panic(fmt.Sprintf("interleave: MaxFieldBound requires n >= 1, got %d", n))
	}
	w := packedBits / n
	if w < 1 {
		return 0
	}
	if w >= 63 {
		return math.MaxInt64 // FieldWidth(2^63-1) = 63: a single lane packs it
	}
	return int64(1)<<w - 1
}

// FieldDelta returns the signed fetch&add delta that changes the given lane's
// binary field from value from to value to: (to - from) << (lane * width).
// This is the packed analogue of Codec.Delta (the posAdj - negAdj update of
// the snapshot construction, paper Section 3.2), collapsed to a single
// machine-word subtraction and shift. Adding it to a word whose lane holds
// from yields a word whose lane holds to with every other lane untouched:
// the arithmetic is exact (both values are in [0, 2^width)), so no carry or
// borrow escapes the field even though the delta itself may be negative.
func (p Packed) FieldDelta(from, to int64, lane int) int64 {
	if from < 0 || from > p.mask || to < 0 || to > p.mask {
		panic(fmt.Sprintf("interleave: packed FieldDelta values (%d, %d) outside [0, %d]", from, to, p.mask))
	}
	return (to - from) << (lane * p.width)
}

// PackedUnaryValue decodes a unary-encoded compact int64 lane: value K is
// represented by bits 1..K set (bit 0 unused, as in the max-register
// construction of paper Section 3.1), so K is the index of the highest set
// bit; 0 means "nothing written".
func PackedUnaryValue(v int64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// PackedUnaryDelta is UnaryDelta on int64: the compact delta raising a
// unary-encoded lane from value from to value to (bits from+1..to), computed
// with two shifts instead of a bit loop. to must stay within the packed lane
// width of the codec the result is spread through.
func PackedUnaryDelta(from, to int) int64 {
	if to <= from || from < 0 || to >= 63 {
		panic(fmt.Sprintf("interleave: PackedUnaryDelta requires 0 <= from < to < 63, got from=%d to=%d", from, to))
	}
	return (int64(1) << (to + 1)) - (int64(1) << (from + 1))
}
