package core

import (
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// The fetch&add constructions carry linearization-point certificates (every
// operation marks its single fetch&add), giving a second, linear-time proof
// of strong linearizability that scales past the game search.

func TestMaxRegisterCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "m", 3)
		return []sim.Program{
			{opWriteMax(m, 2)},
			{opWriteMax(m, 1)},
			{opReadMax(m), opReadMax(m)},
		}
	}
	tree, err := sim.Explore(3, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.CheckLinPointCertificate(tree, spec.MaxRegister{}); !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
}

// A configuration whose tree (about 10^5 leaves) is uncomfortable for the
// game search but trivial for the certificate check.
func TestMaxRegisterCertificateLargeConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive interleaving check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "m", 3)
		return []sim.Program{
			{opWriteMax(m, 2), opReadMax(m)},
			{opWriteMax(m, 1), opReadMax(m)},
			{opReadMax(m), opWriteMax(m, 3)},
		}
	}
	tree, err := sim.Explore(3, setup, &sim.ExploreOptions{MaxNodes: 2000000})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Truncated {
		t.Fatal("tree truncated")
	}
	res := history.CheckLinPointCertificate(tree, spec.MaxRegister{})
	if !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
	if res.Leaves < 30000 {
		t.Fatalf("leaves = %d; expected a large tree", res.Leaves)
	}
}

func TestSnapshotCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "s", 3)
		return []sim.Program{
			{opUpdate(s, 0, 1), opScan(s)},
			{opUpdate(s, 1, 2)},
			{opScan(s)},
		}
	}
	tree, err := sim.Explore(3, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.CheckLinPointCertificate(tree, spec.Snapshot{}); !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
}

func TestFAFetchIncCertificate(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		f := NewFAFetchInc(w, "f")
		return []sim.Program{
			{opFAI(f), opFAIRead(f)},
			{opFAI(f), opFAI(f)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.CheckLinPointCertificate(tree, spec.FetchInc{}); !res.Ok {
		t.Fatalf("certificate rejected: %s", res.Failure)
	}
}

// E-ABL1, sharpened: WITHOUT the fetch&add(R,0), no-op WriteMax operations
// take no shared step, so they carry no linearization point — the
// certificate fails — yet the object remains strongly linearizable (the
// game checker accepts; a stepless no-op can be linearized anywhere). This
// is precisely why the paper keeps the "unnecessary" fetch&add: it buys the
// simple fixed-linearization-point proof.
func TestMaxRegisterAblationCertificateAsymmetry(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewFAMaxRegister(w, "m", 2, withoutNoopFA())
		return []sim.Program{
			{opWriteMax(m, 3), opWriteMax(m, 1)}, // the second write is a stepless no-op
			{opReadMax(m)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert := history.CheckLinPointCertificate(tree, spec.MaxRegister{})
	if cert.Ok {
		t.Fatal("certificate accepted the ablated variant; expected a missing linearization point")
	}
	game := history.CheckStrongLin(tree, spec.MaxRegister{}, nil)
	if !game.Ok {
		t.Fatalf("game checker rejected the ablated variant: %v", game.Counterexample)
	}
}

// Agreement between the two methods wherever both apply.
func TestCertificateAgreesWithGameChecker(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		s := NewFASnapshot(w, "s", 2)
		return []sim.Program{
			{opUpdate(s, 0, 3), opScan(s)},
			{opUpdate(s, 1, 4), opScan(s)},
		}
	}
	tree, err := sim.Explore(2, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert := history.CheckLinPointCertificate(tree, spec.Snapshot{})
	game := history.CheckStrongLin(tree, spec.Snapshot{}, nil)
	if !cert.Ok || !game.Ok {
		t.Fatalf("methods disagree or fail: cert=%v (%s) game=%v", cert.Ok, cert.Failure, game.Ok)
	}
}
