package interleave

import (
	"fmt"
	"math/big"
)

// Bit-at-a-time forms of the codec. The wide engines read and write through
// the word-level kernels (Spread, DecodeInto); these per-bit versions are the
// reference the tests compare those kernels against.

// Decode extracts every lane of the interleaved word.
func (c Codec) Decode(word *big.Int) []*big.Int {
	out := make([]*big.Int, c.n)
	for i := range out {
		out[i] = new(big.Int)
	}
	for pos := 0; pos < word.BitLen(); pos++ {
		if word.Bit(pos) == 1 {
			lane := pos % c.n
			out[lane].SetBit(out[lane], pos/c.n, 1)
		}
	}
	return out
}

// Encode builds the interleaved word holding vals[i] in lane i. It is the
// inverse of Decode. len(vals) must equal Lanes().
func (c Codec) Encode(vals []*big.Int) *big.Int {
	if len(vals) != c.n {
		panic(fmt.Sprintf("interleave: Encode needs exactly %d lane values, got %d", c.n, len(vals)))
	}
	out := new(big.Int)
	for i, v := range vals {
		out.Or(out, c.spreadPerBit(v, i))
	}
	return out
}

// spreadPerBit is Spread one SetBit at a time.
func (c Codec) spreadPerBit(v *big.Int, lane int) *big.Int {
	if v.Sign() < 0 {
		panic("interleave: Spread requires a non-negative value")
	}
	out := new(big.Int)
	for k := 0; k < v.BitLen(); k++ {
		if v.Bit(k) == 1 {
			out.SetBit(out, c.BitPos(lane, k), 1)
		}
	}
	return out
}

// UnaryValue interprets the compact lane value v as a unary-encoded natural
// number: value K is represented by bits 1..K set (bit 0 unused), as in the
// max-register construction of paper Section 3.1. It returns the index of the
// highest set bit, which for well-formed unary values equals the encoded
// number; 0 means "nothing written".
func UnaryValue(v *big.Int) int {
	if v.BitLen() == 0 {
		return 0
	}
	return v.BitLen() - 1
}
