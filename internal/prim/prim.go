// Package prim defines the shared-memory base objects ("primitives") that
// every construction in this repository is written against, together with the
// notion of a World that allocates them.
//
// The paper's model (Section 2) is a standard asynchronous shared-memory
// system: processes communicate by applying atomic operations to shared base
// objects. Two worlds implement these interfaces:
//
//   - prim.NewRealWorld: primitives backed by sync/atomic (the wide
//     fetch&add register is copy-on-write: mutating fetch&adds serialise on a
//     mutex and publish immutable big.Int snapshots, while fetch&add(0) reads
//     are single atomic pointer loads — an implementation detail of the
//     substrate; the primitive is specified atomic). Used for stress tests
//     and benchmarks.
//   - sim.NewWorld (package internal/sim): primitives executed as single
//     atomic steps of a deterministic cooperative scheduler, so that all
//     interleavings of a bounded program can be enumerated. Used for model
//     checking linearizability and strong linearizability.
//
// Consensus numbers (Herlihy 1991), as used throughout the paper:
//
//	read/write registers         consensus number 1
//	test&set, swap, fetch&add    consensus number 2
//	compare&swap                 consensus number ∞
//
// Constructions declare which primitives they use by the interfaces they
// accept; e.g. the readable test&set of Theorem 5 takes a TAS (not a
// ReadableTAS), matching the paper's claim that it builds readability from a
// plain test&set.
package prim

import "math/big"

// Thread identifies the process applying a primitive operation. Every
// primitive method takes the calling thread explicitly: the simulated world
// uses it to schedule the step, the constructions use its ID to select
// per-process lanes/components, and the stress harness uses it to attribute
// operations in recorded histories.
type Thread interface {
	// ID returns the process index in [0, n).
	ID() int
}

// Register is an atomic multi-writer multi-reader read/write register holding
// an int64. Consensus number 1.
type Register interface {
	Read(t Thread) int64
	Write(t Thread, v int64)
}

// AnyRegister is an atomic read/write register holding an opaque immutable
// value (consensus number 1). It models the standard assumption of registers
// with unbounded/composite values (e.g. the (data, seq, view) tuples of the
// Afek et al. snapshot). Stored values must be non-nil and, in the real
// world, of a single concrete type per register; pointers are recommended.
type AnyRegister interface {
	ReadAny(t Thread) any
	WriteAny(t Thread, v any)
}

// TAS is a one-shot test&set object. Consensus number 2. The first
// TestAndSet returns 0 (the caller "wins"); every later call returns 1.
type TAS interface {
	TestAndSet(t Thread) int64
}

// ReadableTAS is a test&set object that additionally supports reading its
// state without modifying it. The paper distinguishes readable from
// non-readable base objects: Theorem 5 shows how to build this interface
// from a plain TAS plus a register, and Lemma 16 shows strong linearizability
// is preserved when base objects are made readable.
type ReadableTAS interface {
	TAS
	Read(t Thread) int64
}

// FetchAdd is an unbounded-width atomic fetch&add register, initially 0.
// Consensus number 2. FetchAdd returns the previous value; a read is
// performed as FetchAdd(0), exactly as in the paper's constructions. The
// returned value must not be mutated by the caller, and delta is not retained.
type FetchAdd interface {
	FetchAdd(t Thread, delta *big.Int) *big.Int
}

// FetchAddInt is a bounded-width (machine-word) fetch&add register holding an
// int64. Consensus number 2 — this is the hardware XADD primitive, the
// bounded special case of FetchAdd. The runtime layers (internal/pool,
// internal/shard) use it for narrow bookkeeping — lease tickets, epoch
// announce counters — where the unbounded register's width (and, in the real
// world, its mutex-guarded big.Int arithmetic) is not needed.
type FetchAddInt interface {
	// FetchAddInt adds delta and returns the previous value.
	FetchAddInt(t Thread, delta int64) int64
}

// Swap is an atomic swap register holding an int64. Consensus number 2.
type Swap interface {
	Swap(t Thread, v int64) int64
}

// ReadableSwap is a swap register that additionally supports reads.
type ReadableSwap interface {
	Swap
	Read(t Thread) int64
}

// MaxReg is an atomic max register base object: ReadMax returns the largest
// value previously written (initially the constructor's init). It is not a
// hardware primitive — the paper's Theorem 6 takes "readable test&set and
// max register" as atomic base objects, which compositions then discharge
// against Theorems 1 and 5 (Corollary 7) or against the lock-free
// register-based max register (Corollary 8).
type MaxReg interface {
	WriteMax(t Thread, v int64)
	ReadMax(t Thread) int64
}

// CAS is an atomic compare&swap register holding an int64. Consensus number
// ∞; it is used only by the universal-object comparators (the "known
// wait-free strongly-linearizable implementations use primitives such as
// compare&swap" the paper contrasts with), never by the paper's own
// constructions.
type CAS interface {
	Read(t Thread) int64
	CompareAndSwap(t Thread, old, new int64) bool
}

// CASCell is a compare&swap cell holding an opaque immutable value compared
// by interface equality. Stored values must be non-nil, comparable, and of a
// single concrete type per cell; pointers are recommended. Consensus number
// ∞ (comparator use only, like CAS).
type CASCell interface {
	Load(t Thread) any
	CompareAndSwap(t Thread, old, new any) bool
}

// LinPointMarker is implemented by worlds that record linearization-point
// certificates (the simulated world). Constructions whose operations have
// fixed own-step linearization points may declare them via MarkLinPoint,
// enabling linear-time strong-linearizability certification in addition to
// the game search.
type LinPointMarker interface {
	MarkLinPoint(t Thread)
}

// MarkLinPoint declares the calling operation's most recent step as its
// linearization point, when the world records certificates; otherwise it is
// a no-op.
func MarkLinPoint(w World, t Thread) {
	if m, ok := w.(LinPointMarker); ok {
		m.MarkLinPoint(t)
	}
}

// Awaiter is implemented by worlds that support a CONDITIONAL read step on an
// AnyRegister: the step executes (and returns the register's value) only once
// ready reports true of it. The simulated world models it as a step that is
// simply not enabled while the condition is false — which keeps exhaustive
// exploration finite where a read-and-retry spin would branch forever — and
// the real world spins. Semantically an await is a plain read that the
// scheduler happens to grant only when the predicate holds: a weak-fairness
// assumption, not a new primitive (the elided reads all return values the
// predicate rejects and carry no information). The migration protocol's
// wait-for-generation-flip is its only client.
type Awaiter interface {
	AwaitAny(t Thread, r AnyRegister, ready func(any) bool) any
}

// AwaitAny reads r repeatedly until ready accepts its value, and returns that
// value. On worlds implementing Awaiter the wait is a single conditional step
// (see Awaiter); elsewhere it degrades to a read spin.
func AwaitAny(w World, t Thread, r AnyRegister, ready func(any) bool) any {
	if a, ok := w.(Awaiter); ok {
		return a.AwaitAny(t, r, ready)
	}
	for {
		if v := r.ReadAny(t); ready(v) {
			return v
		}
	}
}

// World allocates shared base objects. Each object has a name, unique within
// the world, which identifies it in recorded execution traces and in the
// base-object state collections used by the reduction of Lemma 12. Element i
// of a block (FetchAddInts, AnyRegisters) is named name[i].
type World interface {
	Register(name string, init int64) Register
	AnyRegister(name string, init any) AnyRegister
	TAS(name string) ReadableTAS
	// TAS2 is a 2-process test&set: only the two given process IDs may apply
	// operations (Theorem 19 uses systems whose only base objects are
	// 2-process test&set). Misuse by a third process panics.
	TAS2(name string, p, q int) ReadableTAS
	FetchAdd(name string) FetchAdd
	FetchAddInt(name string, init int64) FetchAddInt
	MaxReg(name string, init int64) MaxReg
	Swap(name string, init int64) ReadableSwap
	CAS(name string, init int64) CAS
	CASCell(name string, init any) CASCell
}
