package interleave

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func big64(v uint64) *big.Int { return new(big.Int).SetUint64(v) }

func TestNewValidation(t *testing.T) {
	for _, n := range []int{-3, -1, 0} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
	for _, n := range []int{1, 2, 64, 1000} {
		c, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if c.Lanes() != n {
			t.Errorf("New(%d).Lanes() = %d", n, c.Lanes())
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestBitPos(t *testing.T) {
	c := MustNew(4)
	tests := []struct {
		lane, k, want int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{3, 0, 3},
		{0, 1, 4},
		{2, 3, 14},
		{3, 5, 23},
	}
	for _, tt := range tests {
		if got := c.BitPos(tt.lane, tt.k); got != tt.want {
			t.Errorf("BitPos(%d,%d) = %d, want %d", tt.lane, tt.k, got, tt.want)
		}
	}
}

func TestSpreadLaneRoundTrip(t *testing.T) {
	tests := []struct {
		n    int
		lane int
		v    uint64
	}{
		{1, 0, 0},
		{1, 0, 0xdeadbeef},
		{2, 0, 5},
		{2, 1, 5},
		{3, 2, 0b1011},
		{7, 3, 1<<40 + 17},
	}
	for _, tt := range tests {
		c := MustNew(tt.n)
		w := c.Spread(big64(tt.v), tt.lane)
		got := c.Lane(w, tt.lane)
		if got.Cmp(big64(tt.v)) != 0 {
			t.Errorf("n=%d lane=%d: Lane(Spread(%d)) = %v", tt.n, tt.lane, tt.v, got)
		}
		// All other lanes must be zero.
		for l := 0; l < tt.n; l++ {
			if l == tt.lane {
				continue
			}
			if other := c.Lane(w, l); other.Sign() != 0 {
				t.Errorf("n=%d: Spread into lane %d leaked into lane %d: %v", tt.n, tt.lane, l, other)
			}
		}
	}
}

func TestSpreadRejectsNegative(t *testing.T) {
	c := MustNew(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Spread(-1) did not panic")
		}
	}()
	c.Spread(big.NewInt(-1), 0)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := MustNew(3)
	vals := []*big.Int{big64(0b101), big64(0), big64(1 << 33)}
	w := c.Encode(vals)
	got := c.Decode(w)
	for i := range vals {
		if got[i].Cmp(vals[i]) != 0 {
			t.Errorf("lane %d: got %v want %v", i, got[i], vals[i])
		}
	}
}

func TestEncodeLengthMismatchPanics(t *testing.T) {
	c := MustNew(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with wrong arity did not panic")
		}
	}()
	c.Encode([]*big.Int{big64(1)})
}

// Property: for any lane assignment, Decode(Encode(vals)) == vals, and the
// encoded word's bit count equals the sum of lane bit counts (lanes are
// disjoint).
func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n8 uint8, raw [6]uint64) bool {
		n := int(n8%6) + 1
		c := MustNew(n)
		vals := make([]*big.Int, n)
		bits := 0
		for i := range vals {
			vals[i] = big64(raw[i])
			for k := 0; k < 64; k++ {
				if raw[i]&(1<<k) != 0 {
					bits++
				}
			}
		}
		w := c.Encode(vals)
		// Disjointness: popcount preserved.
		pc := 0
		for k := 0; k < w.BitLen(); k++ {
			pc += int(w.Bit(k))
		}
		if pc != bits {
			return false
		}
		got := c.Decode(w)
		for i := range vals {
			if got[i].Cmp(vals[i]) != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: applying Delta(from,to,lane) to a word whose lane holds `from`
// yields a word whose lane holds `to` and whose other lanes are untouched.
// This is the correctness core of the snapshot construction's
// fetch&add(R, posAdj-negAdj).
func TestDeltaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n8, lane8 uint8, from64, to64, other64 uint64) bool {
		n := int(n8%5) + 2
		lane := int(lane8) % n
		otherLane := (lane + 1) % n
		c := MustNew(n)
		from, to := big64(from64), big64(to64)

		word := new(big.Int).Or(c.Spread(from, lane), c.Spread(big64(other64), otherLane))
		word.Add(word, c.Delta(from, to, lane))

		if c.Lane(word, lane).Cmp(to) != 0 {
			return false
		}
		if c.Lane(word, otherLane).Cmp(big64(other64)) != 0 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// randNat returns a non-negative value of at most maxBits bits whose bit
// density is itself random, so sparse, dense and empty values all occur.
func randNat(rng *rand.Rand, maxBits int) *big.Int {
	v := new(big.Int)
	density := rng.Float64()
	for k := rng.Intn(maxBits + 1); k > 0; k-- {
		if rng.Float64() < density {
			v.SetBit(v, k-1, 1)
		}
	}
	return v
}

// Property: the word-level Spread equals the per-bit one, on values spanning
// several big.Word boundaries, and leaves its argument untouched.
func TestSpreadMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(9)
		c := MustNew(n)
		lane := rng.Intn(n)
		v := randNat(rng, 300)
		before := new(big.Int).Set(v)
		got, want := c.Spread(v, lane), c.spreadPerBit(v, lane)
		if got.Cmp(want) != 0 {
			t.Fatalf("n=%d lane=%d v=%#x: Spread = %#x, per-bit %#x", n, lane, v, got, want)
		}
		if got.SetInt64(1); v.Cmp(before) != 0 {
			t.Fatalf("n=%d lane=%d: Spread's result shares storage with its argument", n, lane)
		}
	}
}

// Property: DecodeInto agrees with the per-bit Decode on every lane — on
// encoded words and on arbitrary words whose lanes fit an int64, spanning
// several big.Word boundaries — overwrites whatever out held, and never
// writes to the word.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(9)
		c := MustNew(n)
		var word *big.Int
		if trial%2 == 0 {
			vals := make([]*big.Int, n)
			for i := range vals {
				vals[i] = randNat(rng, 63)
			}
			word = c.Encode(vals)
		} else {
			word = randNat(rng, 63*n) // top lane-local bit (63n-1)/n = 62
		}
		before := new(big.Int).Set(word)
		out := make([]int64, n)
		for i := range out {
			out[i] = -1
		}
		c.DecodeInto(word, out)
		for i, lane := range c.Decode(word) {
			if !lane.IsInt64() || out[i] != lane.Int64() {
				t.Fatalf("n=%d word=%#x lane %d: DecodeInto %d, Decode %v", n, word, i, out[i], lane)
			}
		}
		if word.Cmp(before) != 0 {
			t.Fatalf("n=%d: DecodeInto wrote to its word", n)
		}
	}
}

func TestDecodeIntoPanics(t *testing.T) {
	c := MustNew(2)
	tooWide := new(big.Int).SetBit(new(big.Int), c.BitPos(1, 63), 1)
	for name, f := range map[string]func(){
		"short-out":     func() { c.DecodeInto(big.NewInt(1), make([]int64, 1)) },
		"negative-word": func() { c.DecodeInto(big.NewInt(-1), make([]int64, 2)) },
		"lane-too-wide": func() { c.DecodeInto(tooWide, make([]int64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DecodeInto did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDecodeIntoAllocatesNothing(t *testing.T) {
	c := MustNew(8)
	word := randNat(rand.New(rand.NewSource(23)), 8*63)
	out := make([]int64, 8)
	if allocs := testing.AllocsPerRun(100, func() { c.DecodeInto(word, out) }); allocs != 0 {
		t.Fatalf("DecodeInto: %v allocs/op, want 0", allocs)
	}
}

func TestUnaryValue(t *testing.T) {
	tests := []struct {
		bits []int
		want int
	}{
		{nil, 0},
		{[]int{1}, 1},
		{[]int{1, 2, 3}, 3},
		{[]int{1, 2, 3, 4, 5, 6, 7}, 7},
		{[]int{3}, 3}, // non-contiguous unary still reports highest bit
	}
	for _, tt := range tests {
		v := new(big.Int)
		for _, b := range tt.bits {
			v.SetBit(v, b, 1)
		}
		if got := UnaryValue(v); got != tt.want {
			t.Errorf("UnaryValue(bits %v) = %d, want %d", tt.bits, got, tt.want)
		}
	}
}

func TestUnaryDelta(t *testing.T) {
	// Raising unary 2 -> 5 must set bits 3,4,5.
	d := UnaryDelta(2, 5)
	want := new(big.Int)
	for _, b := range []int{3, 4, 5} {
		want.SetBit(want, b, 1)
	}
	if d.Cmp(want) != 0 {
		t.Fatalf("UnaryDelta(2,5) = %v, want %v", d, want)
	}
}

func TestUnaryDeltaPanicsOnBadRange(t *testing.T) {
	for _, tt := range []struct{ from, to int }{{3, 3}, {5, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UnaryDelta(%d,%d) did not panic", tt.from, tt.to)
				}
			}()
			UnaryDelta(tt.from, tt.to)
		}()
	}
}

// Property: accumulating UnaryDelta steps reproduces the unary encoding of
// the final value, independent of the intermediate write sequence. This is
// the max-register invariant of paper Section 3.1.
func TestUnaryAccumulationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(steps [5]uint8) bool {
		lane := new(big.Int)
		prev := 0
		for _, s := range steps {
			k := prev + int(s%7) + 1
			lane.Add(lane, UnaryDelta(prev, k))
			prev = k
		}
		return UnaryValue(lane) == prev
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveCodecRoundTrip(t *testing.T) {
	c, err := NewNaive(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lanes() != 4 || c.Width() != 8 {
		t.Fatalf("unexpected codec shape: %+v", c)
	}
	word := new(big.Int)
	for lane, v := range []uint64{0, 1, 200, 255} {
		s, err := c.Spread(big64(v), lane)
		if err != nil {
			t.Fatalf("Spread lane %d: %v", lane, err)
		}
		word.Or(word, s)
	}
	for lane, v := range []uint64{0, 1, 200, 255} {
		if got := c.Lane(word, lane); got.Cmp(big64(v)) != 0 {
			t.Errorf("naive lane %d: got %v want %v", lane, got, v)
		}
	}
}

// E-ABL2: the naive packing overflows once a process writes a value >= 2^d;
// the interleaved codec accepts the same value. This is the reason the paper
// interleaves bits (Section 3.1).
func TestNaivePackingOverflows(t *testing.T) {
	naive, err := NewNaive(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	tooBig := big64(256) // needs 9 bits
	if _, err := naive.Spread(tooBig, 1); err == nil {
		t.Fatal("naive codec accepted an out-of-range value")
	} else {
		var overflow *ErrLaneOverflow
		if !errors.As(err, &overflow) {
			t.Fatalf("want ErrLaneOverflow, got %T: %v", err, err)
		}
		if overflow.Lane != 1 || overflow.Width != 8 {
			t.Fatalf("unexpected overflow details: %+v", overflow)
		}
	}

	il := MustNew(2)
	w := il.Spread(tooBig, 1)
	if il.Lane(w, 1).Cmp(tooBig) != 0 {
		t.Fatal("interleaved codec mangled a wide value")
	}
}

func TestNewNaiveValidation(t *testing.T) {
	if _, err := NewNaive(0, 4); err == nil {
		t.Error("NewNaive(0,4): want error")
	}
	if _, err := NewNaive(2, 0); err == nil {
		t.Error("NewNaive(2,0): want error")
	}
}
