package interleave

import (
	"fmt"
	"math/bits"
)

// MultiPacked is the multi-word extension of Packed: n lanes of width bits
// each, striped across k machine words. Word w hosts the contiguous lane
// range [w*perWord, (w+1)*perWord), each lane a fixed-width binary field of
// its word — so a lane's field never straddles a word boundary, and a field
// delta is still an exact in-word addition that cannot carry across lanes
// (the Packed invariant, per word).
//
// # The per-word sequence field
//
// The top SeqBits bits of every word (bits 48..63, sign bit included) are a
// wrapping modification counter, not lane payload: every value-changing
// update adds SeqIncrement to its field delta, so the payload change and the
// counter bump land in ONE atomic XADD. The counter is what lets a
// multi-word consumer validate a collect: a multi-word register state can
// only be observed one word at a time, and an unvalidated multi-register
// collect is not even linearizable (see core.FASnapshot's negative model
// check) — but two consecutive collects that read identical words (payload
// AND sequence field) pin the whole k-word state to a real instant between
// them. Without the sequence field, word-value equality would be fooled by
// ABA (an update away from a value and back); with it, equality can only lie
// if a word receives an exact multiple of 2^16 value-changing updates
// between one collect's read of it and the next's — the standard seqlock
// wrap caveat, impossible inside a scan window on real hardware unless the
// scanner is descheduled through ≥ 65536 writes to one word.
//
// The sequence field wraps through the sign bit by design (int64 addition is
// mod 2^64, so the carry out of bit 63 vanishes and lane payloads are
// untouched); word values are therefore legitimately negative once a word's
// counter reaches 2^15, and all payload extraction here uses logical
// (uint64) shifts.
//
// Packed fits when n*width <= 63; MultiPacked fits whenever width <=
// LaneBits = 48, whatever n: the word count grows instead of the bound
// shrinking. This is the codec that lifts the single-word snapshot's
// n × bitWidth(maxValue) ≤ 63 ceiling.
//
// The zero value is not usable; construct with NewMultiPacked.
type MultiPacked struct {
	n       int
	width   int
	perWord int // lanes hosted per word: floor(LaneBits / width)
	words   int // ceil(n / perWord)
	mask    int64
}

const (
	// SeqBits is the width of the per-word sequence field.
	SeqBits = 16
	// LaneBits is the payload bit budget of a multi-packed word: a 64-bit
	// word minus the sequence field. Unlike Packed's 63-bit budget there is
	// no sign-bit exclusion — the sequence field owns bit 63 and wraps
	// through it.
	LaneBits = 64 - SeqBits
	// SeqIncrement is the XADD delta that bumps a word's sequence field by
	// one: a value-changing update adds it to its field delta so payload
	// change and counter bump are one atomic step.
	SeqIncrement = int64(1) << LaneBits
	// payloadMask selects the lane payload bits of a word.
	payloadMask = uint64(1)<<LaneBits - 1
)

// NewMultiPacked returns a codec striping n lanes of width bits over
// ceil(n / floor(LaneBits/width)) words, or ok=false when no word can host
// even one field next to the sequence field (width > LaneBits) or the shape
// is degenerate (n < 1, width < 1). Bounds needing 49..63-bit fields do NOT
// stripe — they exceed the validated word's payload budget — and callers
// fall back to the wide register for them.
func NewMultiPacked(n, width int) (MultiPacked, bool) {
	if n < 1 || width < 1 || width > LaneBits {
		return MultiPacked{}, false
	}
	perWord := LaneBits / width
	return MultiPacked{
		n:       n,
		width:   width,
		perWord: perWord,
		words:   (n + perWord - 1) / perWord,
		mask:    (int64(1) << width) - 1,
	}, true
}

// MustNewMultiPacked is like NewMultiPacked but panics when the shape is
// invalid. It is intended for callers that have already checked the width.
func MustNewMultiPacked(n, width int) MultiPacked {
	m, ok := NewMultiPacked(n, width)
	if !ok {
		panic(fmt.Sprintf("interleave: %d lanes x %d bits have no multi-word striping", n, width))
	}
	return m
}

// Lanes returns the number of lanes n.
func (m MultiPacked) Lanes() int { return m.n }

// Words returns the word count k.
func (m MultiPacked) Words() int { return m.words }

// LanesPerWord returns how many lanes each word hosts (the last word may host
// fewer).
func (m MultiPacked) LanesPerWord() int { return m.perWord }

// WordOf returns the index of the word hosting the given lane.
func (m MultiPacked) WordOf(lane int) int { return lane / m.perWord }

// slot is the lane's field index within its word.
func (m MultiPacked) slot(lane int) int { return lane % m.perWord }

// Seq extracts a word's sequence field: the number of value-changing updates
// the word has received, modulo 2^SeqBits.
func (m MultiPacked) Seq(word int64) int64 {
	return int64(uint64(word) >> LaneBits)
}

// Payload returns the word with its sequence field cleared: the lane bits
// only, always non-negative.
func (m MultiPacked) Payload(word int64) int64 {
	return int64(uint64(word) & payloadMask)
}

// Spread places the compact lane value v into the lane's field of its OWN
// word: the value to add to word WordOf(lane) so that an all-zero field
// becomes v. The multi-word analogue of Packed.Spread. It does not bump the
// sequence field; writers add SeqIncrement themselves.
func (m MultiPacked) Spread(v int64, lane int) int64 {
	if v < 0 || v > m.mask {
		panic(fmt.Sprintf("interleave: multipacked Spread value %d outside [0, %d]", v, m.mask))
	}
	return v << (m.slot(lane) * m.width)
}

// FieldDelta returns the signed fetch&add delta, to be applied to word
// WordOf(lane), that changes the lane's binary field from value from to
// value to AND bumps the word's sequence field by one: Packed.FieldDelta
// relative to the owning word, plus SeqIncrement. The payload arithmetic is
// exact within the field, so no carry or borrow escapes it; the sequence bump
// lands above the payload bits in the same atomic addition.
func (m MultiPacked) FieldDelta(from, to int64, lane int) int64 {
	if from < 0 || from > m.mask || to < 0 || to > m.mask {
		panic(fmt.Sprintf("interleave: multipacked FieldDelta values (%d, %d) outside [0, %d]", from, to, m.mask))
	}
	return (to-from)<<(m.slot(lane)*m.width) + SeqIncrement
}

// Lane extracts the given lane's value from the value of its OWN word (the
// caller selects the word with WordOf). The word may be negative — the
// sequence field wraps through the sign bit — so extraction uses logical
// shifts.
func (m MultiPacked) Lane(word int64, lane int) int64 {
	return int64((uint64(word) >> (m.slot(lane) * m.width)) & uint64(m.mask))
}

// GatherWord decodes every lane hosted by word w from the word value into
// view (a slice of length Lanes), leaving other words' lanes untouched: the
// allocation-free scatter-gather half used by multi-word scans. Calling it
// once per word with that word's value fills the whole view. The sequence
// field is ignored.
func (m MultiPacked) GatherWord(word int64, w int, view []int64) {
	if len(view) != m.n {
		panic(fmt.Sprintf("interleave: multipacked GatherWord view has length %d, want %d", len(view), m.n))
	}
	lo := w * m.perWord
	hi := lo + m.perWord
	if hi > m.n {
		hi = m.n
	}
	u := uint64(word)
	for lane := lo; lane < hi; lane++ {
		view[lane] = int64((u >> ((lane - lo) * m.width)) & uint64(m.mask))
	}
}

// ScatterWords encodes a full view (length Lanes) into the per-word register
// values with zero sequence fields, writing them into words (a slice of
// length Words): the inverse of repeated GatherWord, used by tests and
// oracles.
func (m MultiPacked) ScatterWords(view []int64, words []int64) {
	if len(view) != m.n || len(words) != m.words {
		panic(fmt.Sprintf("interleave: multipacked ScatterWords got (%d, %d), want (%d, %d)",
			len(view), len(words), m.n, m.words))
	}
	for w := range words {
		words[w] = 0
	}
	for lane, v := range view {
		words[m.WordOf(lane)] |= m.Spread(v, lane)
	}
}

// PayloadLen returns the bit length of a word's occupied lane payload,
// ignoring the sequence field — the per-word term of a multi-word register's
// width measure.
func (m MultiPacked) PayloadLen(word int64) int {
	return bits.Len64(uint64(word) & payloadMask)
}

// MaxMultiFieldBound returns the largest maxValue whose binary-field encoding
// hosts n lanes within at most the given number of machine words under the
// engine-selection rules — the multi-word analogue of MaxFieldBound, built
// on the same per-word budgets so bound-sizing callers can never
// desynchronize from the engine. Within one word the single packed word
// (63-bit budget, no sequence field — a one-word register needs no collect
// validation) is always admissible, so the result is the larger of the
// packed bound and the multi-word bound (LaneBits of payload per word next
// to the sequence field). With words >= n every lane gets a full LaneBits
// field (or, for n = 1, the packed word's 63 bits); it returns 0 when
// neither engine fits the word budget (n > LaneBits*words and n > 63).
func MaxMultiFieldBound(n, words int) int64 {
	if n < 1 || words < 1 {
		panic(fmt.Sprintf("interleave: MaxMultiFieldBound requires n >= 1 and words >= 1, got (%d, %d)", n, words))
	}
	bound := MaxFieldBound(n) // one packed word, always within budget
	perWord := (n + words - 1) / words
	// Multi-word fields top out at LaneBits (48) < 63, so the full int64
	// domain can only come from the packed term (n = 1).
	if w := LaneBits / perWord; w >= 1 {
		if multi := int64(1)<<w - 1; multi > bound {
			bound = multi
		}
	}
	return bound
}
