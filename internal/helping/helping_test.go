package helping

import (
	"testing"

	"stronglin/internal/obs"
	"stronglin/internal/prim"
)

// script is a read's scripted rounds: each witness call returns the next
// entry, and raise/lower are counted.
type script struct {
	rounds        []round
	next          int
	raises, lower int
	last          bool
}

type round struct {
	w  int64
	ok bool
}

func (s *script) read(t prim.Thread, h *Helper, slot Slot) *Deposit {
	return h.Retry(t, slot,
		func() bool { return false },
		func() (int64, bool) {
			r := s.rounds[s.next]
			s.next++
			return r.w, r.ok
		},
		func() { s.raises++ },
		func() bool { s.lower++; return s.last })
}

func TestRetryRaisesPastBudgetThenAdoptsOnWitness(t *testing.T) {
	th := prim.RealThread(0)
	slot := NewSlot(prim.NewRealWorld(), "slot")
	d := &Deposit{Witness: 7, Words: []int64{42}}
	slot.Write(th, d)
	h := NewHelper(1, nil)
	// The engine's first round failed; the second fails too, which exhausts
	// budget 1 and raises; the third reads the slot and its witness equals
	// the deposit's.
	s := &script{rounds: []round{{5, false}, {7, false}}, last: true}
	if got := s.read(th, h, slot); got != d {
		t.Fatalf("Retry = %v, want the deposit", got)
	}
	if s.raises != 1 || s.lower != 1 {
		t.Fatalf("raises=%d lowers=%d, want 1 and 1", s.raises, s.lower)
	}
	if slot.Read(th) != nil {
		t.Fatal("the last lowerer did not clear the slot")
	}
	want := obs.HelpStats{Adopts: 1, Retries: 3, Raises: 1}
	if got := h.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

func TestRetryMissesAStaleDepositAndKeepsItsOwnValue(t *testing.T) {
	th := prim.RealThread(0)
	slot := NewSlot(prim.NewRealWorld(), "slot")
	slot.Write(th, &Deposit{Witness: 7})
	h := NewHelper(0, nil)
	// Budget 0 raises at once; the next round fails with a witness past the
	// deposit (a miss); the one after validates.
	s := &script{rounds: []round{{8, false}, {8, true}}}
	if got := s.read(th, h, slot); got != nil {
		t.Fatalf("Retry adopted %v, want its own value", got)
	}
	if slot.Read(th) == nil {
		t.Fatal("a lowerer that was not the last cleared the slot")
	}
	want := obs.HelpStats{AdoptMisses: 1, Retries: 2, Raises: 1}
	if got := h.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

func TestRetryFinalCollectSkipsTheWitness(t *testing.T) {
	th := prim.RealThread(0)
	h := NewHelper(1, nil)
	got := h.Retry(th, NewSlot(prim.NewRealWorld(), "slot"),
		func() bool { return true },
		func() (int64, bool) { t.Fatal("witness read after a final collect"); return 0, false },
		func() { t.Fatal("raised within budget") },
		func() bool { t.Fatal("lowered without a raise"); return false })
	if want := (obs.HelpStats{Retries: 1}); got != nil || h.Stats() != want {
		t.Fatalf("Retry = %v, stats %+v; want nil and %+v", got, h.Stats(), want)
	}
}

func TestHelpDepositsOnlyAValidatedRound(t *testing.T) {
	th := prim.RealThread(0)
	slot := NewSlot(prim.NewRealWorld(), "slot")
	h := NewHelper(DefaultBudget, nil)
	h.Help(th, slot, func() *Deposit { return nil })
	if slot.Read(th) != nil || h.Stats().Deposits != 0 {
		t.Fatal("an invalidated help round deposited")
	}
	d := &Deposit{Witness: 3}
	h.Help(th, slot, func() *Deposit { return d })
	if slot.Read(th) != d || h.Stats().Deposits != 1 {
		t.Fatal("a validated help round was not deposited")
	}
}
