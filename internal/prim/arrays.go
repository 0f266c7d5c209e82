package prim

import (
	"strconv"
	"strings"
	"sync"
)

// The paper's constructions use infinite arrays of base objects (the TS
// array of the multi-shot test&set, the M array of fetch&increment, the
// Items and TS arrays of Algorithm 2). The types below model an infinite
// array by lazy, name-indexed allocation: entry i of array "A" is the base
// object named "A[i]", created on first access. Allocation is an addressing
// artifact of modelling an infinite array, not a shared-memory step of the
// algorithm; in the simulated world objects are identified by name, so
// lazily allocating them does not perturb determinism.
//
// Finite arrays allocated all at once go through FetchAddInts and
// AnyRegisters instead, which return a block value rather than one interface
// per element. A block named "A" of n objects reserves the name "A" and every
// element name "A[0]" .. "A[n-1]", exactly as if each element had been
// allocated under its own name. The real world backs the block with one flat
// slice under one name claim, and still panics on a block over a claimed
// name, on an individual claim of "A[i]" against the block, and on a block
// over a base whose elements were claimed one by one. Every other world backs
// it with the n individually named objects, so the simulated world sees the
// same objects, stepped the same way: element i of a block is the object
// named "A[i]".

// FetchAddIntBlock is a block of machine-word fetch&add registers (see
// FetchAddInts). The zero value is an empty block.
type FetchAddIntBlock struct {
	flat []realFetchAddInt // the real world's backing
	objs []FetchAddInt     // every other world's: objs[i] is named name[i]
}

// FetchAddInts allocates n machine-word fetch&add registers, each initially
// init, as the block name (elements name[0] .. name[n-1]; see the block
// reservation rule above).
func FetchAddInts(w World, name string, n int, init int64) FetchAddIntBlock {
	if rw, ok := w.(*RealWorld); ok {
		rw.claimBlock(name, n)
		flat := make([]realFetchAddInt, n)
		for i := range flat {
			flat[i].v.Store(init)
		}
		return FetchAddIntBlock{flat: flat}
	}
	objs := make([]FetchAddInt, n)
	for i := range objs {
		objs[i] = w.FetchAddInt(indexName(name, i), init)
	}
	return FetchAddIntBlock{objs: objs}
}

// Len returns the number of registers in the block.
func (b FetchAddIntBlock) Len() int { return len(b.flat) + len(b.objs) }

// At returns register i of the block.
func (b FetchAddIntBlock) At(i int) FetchAddInt {
	if b.flat != nil {
		return &b.flat[i]
	}
	return b.objs[i]
}

// AnyRegisterBlock is a block of opaque-value registers (see AnyRegisters).
// The zero value is an empty block.
type AnyRegisterBlock struct {
	flat []realAnyRegister
	objs []AnyRegister
}

// AnyRegisters allocates n opaque-value registers, each initially init, as
// the block name (elements name[0] .. name[n-1]).
func AnyRegisters(w World, name string, n int, init any) AnyRegisterBlock {
	if rw, ok := w.(*RealWorld); ok {
		rw.claimBlock(name, n)
		flat := make([]realAnyRegister, n)
		for i := range flat {
			flat[i].v.Store(init)
		}
		return AnyRegisterBlock{flat: flat}
	}
	objs := make([]AnyRegister, n)
	for i := range objs {
		objs[i] = w.AnyRegister(indexName(name, i), init)
	}
	return AnyRegisterBlock{objs: objs}
}

// Len returns the number of registers in the block.
func (b AnyRegisterBlock) Len() int { return len(b.flat) + len(b.objs) }

// At returns register i of the block.
func (b AnyRegisterBlock) At(i int) AnyRegister {
	if b.flat != nil {
		return &b.flat[i]
	}
	return b.objs[i]
}

// TASArray is an infinite array of readable test&set objects.
type TASArray struct {
	mu   sync.Mutex
	w    World
	name string
	objs map[int]ReadableTAS
}

// NewTASArray returns an infinite test&set array allocating from w.
func NewTASArray(w World, name string) *TASArray {
	return &TASArray{w: w, name: name, objs: make(map[int]ReadableTAS)}
}

// Get returns entry i, allocating it on first use.
func (a *TASArray) Get(i int) ReadableTAS {
	a.mu.Lock()
	defer a.mu.Unlock()
	if o, ok := a.objs[i]; ok {
		return o
	}
	o := a.w.TAS(indexName(a.name, i))
	a.objs[i] = o
	return o
}

// RegisterArray is an infinite array of read/write registers, each with the
// same initial value.
type RegisterArray struct {
	mu   sync.Mutex
	w    World
	name string
	init int64
	objs map[int]Register
}

// NewRegisterArray returns an infinite register array allocating from w.
func NewRegisterArray(w World, name string, init int64) *RegisterArray {
	return &RegisterArray{w: w, name: name, init: init, objs: make(map[int]Register)}
}

// Get returns entry i, allocating it on first use.
func (a *RegisterArray) Get(i int) Register {
	a.mu.Lock()
	defer a.mu.Unlock()
	if o, ok := a.objs[i]; ok {
		return o
	}
	o := a.w.Register(indexName(a.name, i), a.init)
	a.objs[i] = o
	return o
}

// SwapArray is an infinite array of readable swap registers.
type SwapArray struct {
	mu   sync.Mutex
	w    World
	name string
	init int64
	objs map[int]ReadableSwap
}

// NewSwapArray returns an infinite swap array allocating from w.
func NewSwapArray(w World, name string, init int64) *SwapArray {
	return &SwapArray{w: w, name: name, init: init, objs: make(map[int]ReadableSwap)}
}

// Get returns entry i, allocating it on first use.
func (a *SwapArray) Get(i int) ReadableSwap {
	a.mu.Lock()
	defer a.mu.Unlock()
	if o, ok := a.objs[i]; ok {
		return o
	}
	o := a.w.Swap(indexName(a.name, i), a.init)
	a.objs[i] = o
	return o
}

func indexName(base string, i int) string {
	return base + "[" + strconv.Itoa(i) + "]"
}

// splitIndex inverts indexName: it reports whether name is base[i] for a
// non-negative i written the way indexName writes it.
func splitIndex(name string) (base string, i int, ok bool) {
	if name == "" || name[len(name)-1] != ']' {
		return "", 0, false
	}
	open := strings.LastIndexByte(name, '[')
	if open < 0 {
		return "", 0, false
	}
	digits := name[open+1 : len(name)-1]
	if digits == "" || digits[0] < '0' || digits[0] > '9' || (digits[0] == '0' && len(digits) > 1) {
		return "", 0, false // no sign, no leading zero: only indexName's spelling
	}
	i, err := strconv.Atoi(digits)
	if err != nil {
		return "", 0, false
	}
	return name[:open], i, true
}
