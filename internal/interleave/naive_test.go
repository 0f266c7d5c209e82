package interleave

import (
	"fmt"
	"math/big"
)

// NaiveCodec is the "natural idea" the paper rejects in Section 3.1: give
// process i the consecutive bits i*d .. (i+1)*d-1 of the shared word. It
// bounds the value each process can store at 2^d - 1, which is why the
// constructions use interleaved lanes instead. The tests keep it as the
// contrast: its fields overflow where the interleaved lanes do not.
type NaiveCodec struct {
	n, d int
	max  *big.Int
}

// ErrLaneOverflow is reported when a value does not fit in a naive d-bit
// field.
type ErrLaneOverflow struct {
	Lane  int
	Width int
	Value *big.Int
}

func (e *ErrLaneOverflow) Error() string {
	return fmt.Sprintf("interleave: value %v overflows %d-bit field of lane %d", e.Value, e.Width, e.Lane)
}

// NewNaive returns a codec with n consecutive fields of d bits each.
func NewNaive(n, d int) (NaiveCodec, error) {
	if n < 1 || d < 1 {
		return NaiveCodec{}, fmt.Errorf("interleave: naive codec needs n >= 1 and d >= 1, got n=%d d=%d", n, d)
	}
	max := new(big.Int).Lsh(big.NewInt(1), uint(d))
	max.Sub(max, big.NewInt(1))
	return NaiveCodec{n: n, d: d, max: max}, nil
}

// Lanes returns the number of fields.
func (c NaiveCodec) Lanes() int { return c.n }

// Width returns the bit width d of each field.
func (c NaiveCodec) Width() int { return c.d }

// Spread places v into field lane, or reports ErrLaneOverflow when v needs
// more than d bits.
func (c NaiveCodec) Spread(v *big.Int, lane int) (*big.Int, error) {
	if v.Sign() < 0 {
		return nil, fmt.Errorf("interleave: naive Spread requires a non-negative value")
	}
	if v.Cmp(c.max) > 0 {
		return nil, &ErrLaneOverflow{Lane: lane, Width: c.d, Value: new(big.Int).Set(v)}
	}
	return new(big.Int).Lsh(v, uint(lane*c.d)), nil
}

// Lane extracts field lane from the packed word.
func (c NaiveCodec) Lane(word *big.Int, lane int) *big.Int {
	out := new(big.Int).Rsh(word, uint(lane*c.d))
	return out.And(out, c.max)
}
