// Package helping is the one implementation of the helping protocol under the
// library's two combining-read engines: internal/core's multi-word snapshot
// scan and internal/shard's epoch-validated reads.
//
// # The rule helping must keep
//
// A validated read collects, then closes with a WITNESS: one more read of an
// announce counter (word 0 of the snapshot, the shard epoch) that every write
// bumps after its linearization step. The read may return only if the witness
// shows no announce since the collect began, and the witness must be the
// read's final shared step. Then every write that completed before the read
// returned is in the value, so the read can be appended to any prefix-closed
// linearization: the read is strongly linearizable.
//
// On its own that read is only lock-free: every retry consumes a concurrent
// write's announce, so a write storm can starve a reader. Helping bounds a
// starved reader's own steps in three moves, and adoption keeps the rule:
//
//  1. PRESSURE. A read that fails more rounds than its budget (DefaultBudget
//     unless configured) raises a pressure signal once, and lowers it when
//     it returns. Writes read the signal after announcing.
//  2. DEPOSIT. A write that finds pressure raised runs one bounded validated
//     collect of its own and deposits it in the help slot,
//     keyed by the witness value its own validation closed at. A helper whose
//     collect is invalidated gives up after helperRounds; the write that
//     invalidated it meets the same pressure after its own announce and
//     inherits the obligation, so writes stay wait-free.
//  3. ADOPT, WITNESSED. A raised read reads the slot BEFORE its closing
//     witness. When its own round fails but the witness equals the deposit's,
//     it returns the deposit. The witness is still the read's final shared
//     step and it is the same comparison the read's own rounds make, so an
//     adopted value carries the same argument: a write that announced after
//     the helper validated moves the counter and forces a retry, and
//     adoption cannot resurrect a past value. Reading the slot after the
//     witness would let a write announce and complete between them unseen.
//
// The last reader to lower pressure clears the slot, so a deposit never
// outlives the pressure episode that asked for it. A clear may race a fresh
// raise and drop a newer deposit: that delays one reader and never returns a
// wrong value, because adoption still needs the witness.
//
// Against a single-writer storm each storm write must refresh the deposit
// before its next announce can invalidate it, so the helped read finishes in
// a fixed number of its own steps (the storm progress witnesses in core and
// shard pin the count). Against an adversary that splits the two steps
// between the slot read and the witness, each split consumes a fresh
// announce: strictly, reads stay lock-free, with the starvation window shrunk
// from a full collect to those two steps (cf. arXiv 2506.18401 on consistent
// refereeing for why some residue is unavoidable).
//
// # What the engines supply
//
// The kernel never reads the engine's registers itself. A read runs its own
// first round, so an uncontended read never enters the kernel; once that
// round fails, the read passes its round to Helper.Retry as hooks: the reads
// that may come before the slot read, the closing witness, and the raise and
// lower of the pressure signal. The multi-word scan's rounds are anchored
// re-reads that end in the word-0 witness, and its pressure is a separate
// register; the sharded reads collect the shards and then witness the epoch,
// whose high bits carry the pressure. A helper passes Helper.Help one
// validated round that yields its deposit.
package helping

import (
	"sync/atomic"

	"stronglin/internal/obs"
	"stronglin/internal/prim"
)

// DefaultBudget is the default retry budget: how many failed validation
// rounds a read absorbs before it raises pressure.
const DefaultBudget = 2

// helperRounds bounds a helper's validation attempts. One suffices: an
// uninterfered helper always validates, and under interference the
// interferer helps in turn (the bound also keeps the helped configurations
// inside the model checker's exploration budget).
const helperRounds = 1

// Deposit is a helper's validated collect: Witness is the exact announce
// counter value its validation closed at, Words its payload (the snapshot's
// k raw words, a shard combine's value or union). Immutable once deposited.
// The empty slot holds a nil *Deposit.
type Deposit struct {
	Witness int64
	Words   []int64
}

// Slot is a help slot: a register holding the freshest deposit, or nil.
type Slot struct{ reg prim.AnyRegister }

// NewSlot allocates an empty help slot named name.
func NewSlot(w prim.World, name string) Slot {
	return Slot{reg: w.AnyRegister(name, (*Deposit)(nil))}
}

// Read returns the slot's deposit, or nil when the slot is empty.
func (s Slot) Read(t prim.Thread) *Deposit {
	d, _ := s.reg.ReadAny(t).(*Deposit)
	return d
}

// Write deposits d, replacing whatever the slot held.
func (s Slot) Write(t prim.Thread, d *Deposit) { s.reg.WriteAny(t, d) }

// Clear empties the slot.
func (s Slot) Clear(t prim.Thread) { s.reg.WriteAny(t, (*Deposit)(nil)) }

// Helper is one object's helping configuration and telemetry. The counters
// are never read by the protocol, and only the slow path touches them: a
// read whose first round validates never calls Retry, and a write that owes
// no help never calls Help.
type Helper struct {
	budget int
	rounds *obs.Histogram

	deposits    atomic.Int64
	adopts      atomic.Int64
	adoptMisses atomic.Int64
	retries     atomic.Int64
	raises      atomic.Int64
}

// NewHelper returns a Helper whose reads raise pressure after budget failed
// rounds and observe each contended read's failed rounds in rounds (nil: not
// observed).
func NewHelper(budget int, rounds *obs.Histogram) *Helper {
	return &Helper{budget: budget, rounds: rounds}
}

// Stats reports the helping telemetry: helper deposits, reads that returned
// an adopted deposit, adoption attempts whose witness failed, failed
// validation rounds, and pressure-raise episodes.
func (h *Helper) Stats() obs.HelpStats {
	return obs.HelpStats{
		Deposits:    h.deposits.Load(),
		Adopts:      h.adopts.Load(),
		AdoptMisses: h.adoptMisses.Load(),
		Retries:     h.retries.Load(),
		Raises:      h.raises.Load(),
	}
}

// Retry continues a validated read whose first round failed: the engine
// runs that round itself, so a read that validates at once never enters the
// kernel. Retry runs rounds until one validates or an adoption succeeds, and
// returns the adopted deposit, or nil when the read's own value stands. Each
// round calls collect (true: the value needs no witness, and the read
// returns it), then reads slot if pressure is raised, then calls witness,
// which performs the closing witness read and reports its value and whether
// the round validated. Once the failed rounds pass the budget, raise is
// called; lower is called on return if it was, and reports whether this
// read was the last one raised, which then clears slot.
func (h *Helper) Retry(t prim.Thread, slot Slot, collect func() (final bool),
	witness func() (w int64, ok bool), raise func(), lower func() (last bool)) *Deposit {
	raised := false
	var adopted *Deposit
	failed, missed := int64(1), int64(0)
	for spins := 0; ; spins++ {
		if spins >= h.budget && !raised { // spins+1 rounds have failed
			raised = true
			raise()
		}
		if collect() {
			break
		}
		var d *Deposit
		if raised {
			d = slot.Read(t)
		}
		w, ok := witness()
		if ok {
			break
		}
		failed++
		if d != nil {
			if d.Witness == w {
				adopted = d
				break
			}
			missed++ // a deposit was there, but an announce moved past it
		}
	}
	h.retries.Add(failed)
	if missed > 0 {
		h.adoptMisses.Add(missed)
	}
	h.rounds.Observe(failed)
	if raised {
		h.raises.Add(1)
		if lower() {
			slot.Clear(t)
		}
		if adopted != nil {
			h.adopts.Add(1)
		}
	}
	return adopted
}

// Help is a write's help obligation, run once it has seen raised pressure:
// up to helperRounds validated rounds, depositing the first that validates.
// round performs one collect closed by its witness and returns the deposit,
// or nil when the witness failed. A stale deposit never corrupts a read (its
// witness fails); it only delays adoption.
func (h *Helper) Help(t prim.Thread, slot Slot, round func() *Deposit) {
	for r := 0; r < helperRounds; r++ {
		if d := round(); d != nil {
			slot.Write(t, d)
			h.deposits.Add(1)
			return
		}
	}
}
