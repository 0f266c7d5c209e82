package shard

import (
	"fmt"
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// The sharded monotone objects are verified the same way as the paper's
// constructions: exhaustive strong-linearizability model checks of bounded
// configurations (here 2 shards x 2-3 processes), plus randomized
// linearizability stress under real goroutine concurrency. The naive
// single-collect combines are checked NEGATIVELY, reproducing the hierarchy
// in the package comment: the unvalidated max combine is not even
// linearizable, and the unvalidated sum/membership combines are linearizable
// but not strongly linearizable — the checker must exhibit both traps.

// --- sim.Op builders ---------------------------------------------------------

func opInc(c *Counter) sim.Op {
	return sim.Op{
		Name: "inc()",
		Spec: spec.MkOp(spec.MethodInc),
		Run: func(t prim.Thread) string {
			c.Inc(t)
			return spec.RespOK
		},
	}
}

func opRead(c *Counter) sim.Op {
	return sim.Op{
		Name: "read()",
		Spec: spec.MkOp(spec.MethodRead),
		Run:  func(t prim.Thread) string { return spec.RespInt(c.Read(t)) },
	}
}

func opReadSingleCollect(c *Counter) sim.Op {
	return sim.Op{
		Name: "read-single()",
		Spec: spec.MkOp(spec.MethodRead),
		Run:  func(t prim.Thread) string { return spec.RespInt(c.readSingleCollect(t)) },
	}
}

func opWriteMax(m *MaxRegister, v int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodWriteMax, v).String(),
		Spec: spec.MkOp(spec.MethodWriteMax, v),
		Run: func(t prim.Thread) string {
			m.WriteMax(t, v)
			return spec.RespOK
		},
	}
}

func opReadMax(m *MaxRegister) sim.Op {
	return sim.Op{
		Name: "rmax()",
		Spec: spec.MkOp(spec.MethodReadMax),
		Run:  func(t prim.Thread) string { return spec.RespInt(m.ReadMax(t)) },
	}
}

func opReadMaxSingleCollect(m *MaxRegister) sim.Op {
	return sim.Op{
		Name: "rmax-single()",
		Spec: spec.MkOp(spec.MethodReadMax),
		Run:  func(t prim.Thread) string { return spec.RespInt(m.readMaxSingleCollect(t)) },
	}
}

func opAdd(g *GSet, x int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodAdd, x).String(),
		Spec: spec.MkOp(spec.MethodAdd, x),
		Run: func(t prim.Thread) string {
			g.Add(t, x)
			return spec.RespOK
		},
	}
}

func opHas(g *GSet, x int64) sim.Op {
	return sim.Op{
		Name: spec.MkOp(spec.MethodHas, x).String(),
		Spec: spec.MkOp(spec.MethodHas, x),
		Run: func(t prim.Thread) string {
			if g.Has(t, x) {
				return "1"
			}
			return "0"
		},
	}
}

func opHasSingleCollect(g *GSet, x int64) sim.Op {
	return sim.Op{
		Name: "has-single(" + spec.RespInt(x) + ")",
		Spec: spec.MkOp(spec.MethodHas, x),
		Run: func(t prim.Thread) string {
			if g.hasSingleCollect(t, x) {
				return "1"
			}
			return "0"
		},
	}
}

// verifySL explores every interleaving of the configuration and requires
// both linearizability and strong linearizability.
func verifySL(t *testing.T, procs int, setup sim.Setup, sp spec.Spec) history.Verdict {
	t.Helper()
	v, err := history.Verify(procs, setup, sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable {
		t.Fatalf("linearizability violated: %s", v.LinViolation)
	}
	if !v.StrongLin.Ok {
		t.Fatalf("strong linearizability violated: %v", v.StrongLin.Counterexample)
	}
	return v
}

// --- Sequential sanity -------------------------------------------------------

func TestShardedCounterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewCounter(w, "c", 4, 2)
	for lane := 0; lane < 4; lane++ {
		c.Inc(sim.SoloThread(lane)) // lanes 0,2 hit shard 0; lanes 1,3 shard 1
	}
	c.Add(sim.SoloThread(3), 10)
	if got := c.Read(sim.SoloThread(0)); got != 14 {
		t.Fatalf("Read = %d, want 14", got)
	}
}

func TestShardedMaxRegisterSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewMaxRegister(w, "m", 4, 2)
	m.WriteMax(sim.SoloThread(0), 7) // shard 0
	m.WriteMax(sim.SoloThread(1), 3) // shard 1
	m.WriteMax(sim.SoloThread(2), 5) // shard 0
	if got := m.ReadMax(sim.SoloThread(3)); got != 7 {
		t.Fatalf("ReadMax = %d, want 7", got)
	}
}

// TestShardedMaxRegisterWideCollectAllocFree pins the wide collect
// at slserve's default shape — 8 lanes over 4 unbounded shards, every lane
// raised to just below 1024 — at 0 allocs per read: each shard's decode is a
// BitLen, not a walk over its ~2048-bit word.
func TestShardedMaxRegisterWideCollectAllocFree(t *testing.T) {
	const lanes = 8
	m := NewMaxRegister(prim.NewRealWorld(), "m", lanes, 4)
	if m.Packed() {
		t.Fatal("unbounded shards packed; want the wide cores")
	}
	for l := 0; l < lanes; l++ {
		m.WriteMax(prim.RealThread(l), 1023-int64(l))
	}
	th := prim.RealThread(0)
	if allocs := testing.AllocsPerRun(200, func() { m.ReadMax(th) }); allocs != 0 {
		t.Fatalf("wide ReadMax allocates %.1f per op, want 0", allocs)
	}
	if got := m.ReadMax(th); got != 1023 {
		t.Fatalf("ReadMax = %d, want 1023", got)
	}
}

func TestShardedGSetSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	g := NewGSet(w, "g", 4, 2)
	g.Add(sim.SoloThread(0), 1)
	g.Add(sim.SoloThread(1), 2)
	g.Add(sim.SoloThread(3), 2) // same element via the other shard
	if !g.Has(sim.SoloThread(2), 1) || !g.Has(sim.SoloThread(2), 2) || g.Has(sim.SoloThread(2), 3) {
		t.Fatal("membership after adds is wrong")
	}
	if got := g.Elems(sim.SoloThread(0)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Elems = %v, want [1 2]", got)
	}
}

func TestShardValidation(t *testing.T) {
	for _, bad := range []struct{ lanes, shards int }{{0, 1}, {1, 0}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCounter(lanes=%d, shards=%d) did not panic", bad.lanes, bad.shards)
				}
			}()
			NewCounter(sim.NewSoloWorld(), "c", bad.lanes, bad.shards)
		}()
	}
}

// --- Bounded model checks (2 shards x 2-3 processes) -------------------------

func TestShardedCounterStrongLinTwoIncsOneReader(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 3, 2)
		return []sim.Program{
			{opInc(c)}, // shard 0
			{opInc(c)}, // shard 1
			{opRead(c)},
		}
	}
	verifySL(t, 3, setup, spec.MonotonicCounter{})
}

func TestShardedCounterStrongLinIncReadMix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 2, 2)
		return []sim.Program{
			{opInc(c), opRead(c)},
			{opInc(c), opRead(c)},
		}
	}
	verifySL(t, 2, setup, spec.MonotonicCounter{})
}

func TestShardedMaxRegisterStrongLinTwoWritersOneReader(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMaxRegister(w, "m", 3, 2)
		return []sim.Program{
			{opWriteMax(m, 2)}, // shard 0
			{opWriteMax(m, 1)}, // shard 1
			{opReadMax(m)},
		}
	}
	verifySL(t, 3, setup, spec.MaxRegister{})
}

func TestShardedMaxRegisterStrongLinWriteReadMix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMaxRegister(w, "m", 2, 2)
		return []sim.Program{
			{opWriteMax(m, 2), opReadMax(m)},
			{opWriteMax(m, 1), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

// TestShardedMaxRegisterSingleCollectNotLinearizable is the coarsest negative
// result motivating the epoch validation: combining one read per shard by max
// is NOT linearizable, because the global max does not pass through
// intermediate values. The checker finds the package comment's counterexample — the reader
// collects shard 0 before WriteMax(7) lands there, WriteMax(7) completes
// before WriteMax(3) starts, and the reader then collects 3 from shard 1 and
// returns 3 < 7.
func TestShardedMaxRegisterSingleCollectNotLinearizable(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewMaxRegister(w, "m", 3, 2)
		return []sim.Program{
			{opWriteMax(m, 7)}, // shard 0
			{opWriteMax(m, 3)}, // shard 1
			{opReadMaxSingleCollect(m)},
		}
	}
	v, err := history.Verify(3, setup, spec.MaxRegister{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Linearizable {
		t.Fatal("single-collect sharded max register verified linearizable; expected a violation")
	}
}

// TestShardedCounterSingleCollectNotStrongLin is the finer negative result:
// the unvalidated sum IS linearizable (the total passes through every
// intermediate value) but NOT strongly linearizable — once an inc completes
// mid-collect, prefix-closure forces it into the linearization while the
// reader's eventual sum still depends on the schedule, so no commitment
// survives every future. This is the gap the epoch validation closes.
func TestShardedCounterSingleCollectNotStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 3, 2)
		return []sim.Program{
			{opInc(c)}, // shard 0
			{opInc(c)}, // shard 1
			{opReadSingleCollect(c), opReadSingleCollect(c)},
		}
	}
	v, err := history.Verify(3, setup, spec.MonotonicCounter{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable {
		t.Fatalf("single-collect sum should be linearizable; violation: %s", v.LinViolation)
	}
	if v.StrongLin.Ok {
		t.Fatal("single-collect sharded counter verified strongly linearizable; expected a refutation")
	}
}

// TestShardedGSetSingleCollectNotStrongLin: the unvalidated membership scan
// is linearizable (monotone contrapositive) but not strongly linearizable —
// the same trap as the counter, with an add completing between the reader's
// visit to its shard and the reader's final step.
func TestShardedGSetSingleCollectNotStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 3, 2)
		return []sim.Program{
			{opAdd(g, 1)}, // shard 0
			{opAdd(g, 1)}, // shard 1: the same element, reachable via either shard
			{opHasSingleCollect(g, 1), opHasSingleCollect(g, 1)},
		}
	}
	v, err := history.Verify(3, setup, spec.GSet{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable {
		t.Fatalf("single-collect membership should be linearizable; violation: %s", v.LinViolation)
	}
	if v.StrongLin.Ok {
		t.Fatal("single-collect sharded gset verified strongly linearizable; expected a refutation")
	}
}

func TestShardedGSetStrongLinTwoAddersOneReader(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 3, 2)
		return []sim.Program{
			{opAdd(g, 1)}, // shard 0
			{opAdd(g, 2)}, // shard 1
			{opHas(g, 2)}, // misses shard 0, witnesses shard 1
		}
	}
	verifySL(t, 3, setup, spec.GSet{})
}

func TestShardedGSetStrongLinAddHasMix(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, 2)
		return []sim.Program{
			{opAdd(g, 1), opHas(g, 2)},
			{opAdd(g, 2), opHas(g, 1)},
		}
	}
	verifySL(t, 2, setup, spec.GSet{})
}

// --- Packed shard cores (WithBound) ------------------------------------------
//
// The packed sharded objects must pass the SAME exhaustive model checks as
// the wide ones on the same 2-shard x 2-3-process configurations: a packed
// shard operation is still one fetch&add step on one register, so the
// configurations — and the strong-linearizability argument — carry over.

func TestPackedShardedSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	c := NewCounter(w, "c", 4, 2, WithBound(1<<30))
	m := NewMaxRegister(w, "m", 4, 2, WithBound(20)) // 2 lanes/shard x 21 bits = 42
	g := NewGSet(w, "g", 4, 2, WithBound(20))
	if !c.Packed() || !m.Packed() || !g.Packed() {
		t.Fatalf("Packed() = (%v, %v, %v), want all true", c.Packed(), m.Packed(), g.Packed())
	}
	for lane := 0; lane < 4; lane++ {
		c.Inc(sim.SoloThread(lane))
	}
	m.WriteMax(sim.SoloThread(0), 17)
	m.WriteMax(sim.SoloThread(1), 3)
	g.Add(sim.SoloThread(2), 9)
	g.Add(sim.SoloThread(3), 9)
	if got := c.Read(sim.SoloThread(0)); got != 4 {
		t.Fatalf("Read = %d, want 4", got)
	}
	if got := m.ReadMax(sim.SoloThread(2)); got != 17 {
		t.Fatalf("ReadMax = %d, want 17", got)
	}
	if !g.Has(sim.SoloThread(0), 9) || g.Has(sim.SoloThread(0), 8) {
		t.Fatal("membership after adds is wrong")
	}
}

// TestPackedShardedWideFallback: a bound the per-shard encoding cannot hold
// must still construct a working (wide) object.
func TestPackedShardedWideFallback(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewMaxRegister(w, "m", 4, 2, WithBound(1<<20))
	if m.Packed() {
		t.Fatal("2 lanes x 2^20 bound cannot pack")
	}
	m.WriteMax(sim.SoloThread(1), 99999)
	if got := m.ReadMax(sim.SoloThread(0)); got != 99999 {
		t.Fatalf("ReadMax = %d, want 99999", got)
	}
}

// TestMixedEngineShardsEnforceBoundUniformly: 3 lanes / 2 shards with bound
// 31 gives shard 0 two lanes (2 x 32 = 64 bits: wide) and shard 1 one lane
// (32 bits: packed). The declared bound must be enforced identically through
// both shards — a write's fate cannot depend on which lane issued it.
func TestMixedEngineShardsEnforceBoundUniformly(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewMaxRegister(w, "m", 3, 2, WithBound(31))
	if m.Packed() {
		t.Fatal("shard 0 must be wide in this config")
	}
	for _, id := range []int{0, 1} { // id 0 -> wide shard 0, id 1 -> packed shard 1
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WriteMax(40) via lane %d did not panic", id)
				}
			}()
			m.WriteMax(sim.SoloThread(id), 40)
		}()
	}
	m.WriteMax(sim.SoloThread(0), 31)
	m.WriteMax(sim.SoloThread(1), 30)
	if got := m.ReadMax(sim.SoloThread(2)); got != 31 {
		t.Fatalf("ReadMax = %d, want 31", got)
	}
}

func TestPackedShardedCounterStrongLinTwoIncsOneReader(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 3, 2, WithBound(100))
		return []sim.Program{
			{opInc(c)}, // shard 0
			{opInc(c)}, // shard 1
			{opRead(c)},
		}
	}
	verifySL(t, 3, setup, spec.MonotonicCounter{})
}

func TestPackedShardedCounterStrongLinIncReadMix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 2, 2, WithBound(100))
		return []sim.Program{
			{opInc(c), opRead(c)},
			{opInc(c), opRead(c)},
		}
	}
	verifySL(t, 2, setup, spec.MonotonicCounter{})
}

func TestPackedShardedMaxRegisterStrongLinTwoWritersOneReader(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMaxRegister(w, "m", 3, 2, WithBound(5))
		return []sim.Program{
			{opWriteMax(m, 2)}, // shard 0
			{opWriteMax(m, 1)}, // shard 1
			{opReadMax(m)},
		}
	}
	verifySL(t, 3, setup, spec.MaxRegister{})
}

func TestPackedShardedMaxRegisterStrongLinWriteReadMix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMaxRegister(w, "m", 2, 2, WithBound(5))
		return []sim.Program{
			{opWriteMax(m, 2), opReadMax(m)},
			{opWriteMax(m, 1), opReadMax(m)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

func TestPackedShardedGSetStrongLinTwoAddersOneReader(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 3, 2, WithBound(5))
		return []sim.Program{
			{opAdd(g, 1)}, // shard 0
			{opAdd(g, 2)}, // shard 1
			{opHas(g, 2)}, // misses shard 0, witnesses shard 1
		}
	}
	verifySL(t, 3, setup, spec.GSet{})
}

func TestPackedShardedGSetStrongLinAddHasMix(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, 2, WithBound(5))
		return []sim.Program{
			{opAdd(g, 1), opHas(g, 2)},
			{opAdd(g, 2), opHas(g, 1)},
		}
	}
	verifySL(t, 2, setup, spec.GSet{})
}

// --- helped combining reads: exhaustive model checks (PR 5) ------------------

// The helped sharded reads are verified in layers, because the shard
// pressure poll is FUSED into the epoch announce: adoption needs a write
// that announces AFTER the reader raised, i.e. a second write — and the
// 2-write budget-0 tree exceeds 3M nodes, far past the exploration budget
// (measured; the core engine's 1-update shape stays exhaustive because its
// poll is a separate step after the announce). The split, mirroring PR
// 4.1's envelope discipline: (1) exhaustive budget-0 checks on the 1-write
// shape, whose trees contain the raise and the raised rounds' slot reads
// on many branches; (2) a crafted-schedule deterministic adoption
// (TestShardedHelpedAdoptCraftedRace: lin-checked, adopted value pinned);
// (3) the storm progress witnesses below, where adoption is what bounds
// the reader; (4) real-concurrency stress via the budget-0 rows of the
// root package's TestStressLinearizable. The witness-free-adoption hazard
// itself is pinned once, in internal/core
// (TestMultiwordAdoptUnanchoredNotStrongLin) — the shard
// adopt performs the structurally identical closing epoch witness through
// the shared validatedRead.

// TestShardedHelpedCounterStrongLin: exhaustive budget-0 counter — the
// reader raises pressure after its first failed round and every later
// round reads the help slot before its closing epoch witness.
func TestShardedHelpedCounterStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 2, 2, WithReadRetryBudget(0))
		return []sim.Program{
			{opRead(c)},
			{opInc(c)},
		}
	}
	verifySL(t, 2, setup, spec.MonotonicCounter{})
}

// TestShardedHelpedMaxRegisterStrongLin: the budget-0 helped shape on the
// max register, whose combine (max) is the one that is not even
// linearizable without validation.
func TestShardedHelpedMaxRegisterStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMaxRegister(w, "m", 2, 2, WithReadRetryBudget(0))
		return []sim.Program{
			{opReadMax(m)},
			{opWriteMax(m, 2)},
		}
	}
	verifySL(t, 2, setup, spec.MaxRegister{})
}

// TestShardedHelpedGSetStrongLin: the budget-0 helped shape on the
// grow-only set — a miss must validate (or adopt) every round.
func TestShardedHelpedGSetStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, 2, WithReadRetryBudget(0))
		return []sim.Program{
			{opHas(g, 3)},
			{opAdd(g, 1)},
		}
	}
	verifySL(t, 2, setup, spec.GSet{})
}

// TestShardedHelpedAdoptCraftedRace drives the shipped counter through a
// deterministic adoption: the budget-0 reader fails its first round on
// inc1's announce and raises pressure in the epoch's high bits; inc2's
// announce returns the raised bits, so it deposits an epoch-validated sum;
// the reader's next round fails its own validation (inc2 announced since)
// but the deposit's epoch equals the closing read — the reader must adopt,
// return the deposited sum, and the recorded history must linearize.
func TestShardedHelpedAdoptCraftedRace(t *testing.T) {
	var adopted int64
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 2, 2, WithReadRetryBudget(0))
		read := sim.Op{
			Name: "read()",
			Spec: spec.MkOp(spec.MethodRead),
			Run: func(th prim.Thread) string {
				v := c.Read(th)
				adopted = c.HelpStats().Adopts
				return spec.RespInt(v)
			},
		}
		return []sim.Program{
			{read},
			{opInc(c), opInc(c)},
		}
	}
	window := []int{
		0, 0, // read: invoke, epoch baseline
		1, 1, 1, // inc1: invoke, shard XADD, announce (sees no pressure) -> returns
		0, 0, 0, // read round 0: c0, c1, epoch (moved) -> fail
		0,                      // read: raise pressure (epoch high bits)
		1, 1, 1, 1, 1, 1, 1, 1, // inc2: invoke, shard, announce (sees pressure), help e, c0, c1, e2, deposit -> returns
		0, 0, 0, 0, // read round 1: c0, c1, slot (deposit), epoch -> own fail, deposit epoch matches -> ADOPT
		0, // read: lower pressure -> returns
	}
	policy := func(v sim.PolicyView) int {
		if v.Step < len(window) {
			p := window[v.Step]
			for _, e := range v.Enabled {
				if e == p {
					return p
				}
			}
		}
		return v.Enabled[0]
	}
	exec, err := sim.RunToCompletion(2, setup, policy, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Complete {
		t.Fatalf("crafted adoption did not complete (schedule %v)", exec.Schedule)
	}
	h := history.FromEvents(2, exec.Ops, exec.Events)
	if res := history.CheckLinearizable(h, spec.MonotonicCounter{}); !res.Ok {
		t.Fatalf("crafted adoption history not linearizable: %s", h.String())
	}
	if adopted == 0 {
		t.Fatalf("crafted schedule did not reach the adopt path (schedule %v, history %s)", exec.Schedule, h.String())
	}
	if got := exec.Responses()[0]; got != spec.RespInt(2) {
		t.Fatalf("adopted read = %s, want %s (the helper's validated sum)", got, spec.RespInt(2))
	}
	t.Logf("adopted read, history: %s", h.String())
}

// --- wait-freedom of the helped combining read (PR 5) ------------------------
//
// The storm adversary (sim.AnchorStormPolicy, anchored here on the epoch
// register) lives in internal/sim so that this witness and internal/core's
// drive the identical scheduler.

// shardedStormReadSteps runs one counter read against a storm of
// increments under the anchor-storm adversary and returns the reader's own
// step count. helped selects the shipped (budget-0, adopting) Read;
// otherwise the reader runs readSpin, the pre-helping lock-free protocol.
// opts are appended to the counter's options.
func shardedStormReadSteps(t *testing.T, storm int, helped bool, opts ...Option) int {
	t.Helper()
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 2, 2, append([]Option{WithReadRetryBudget(0)}, opts...)...)
		read := sim.Op{
			Name: "read()",
			Spec: spec.MkOp(spec.MethodRead),
			Run: func(th prim.Thread) string {
				if helped {
					return spec.RespInt(c.Read(th))
				}
				return spec.RespInt(c.readSpin(th))
			},
		}
		var incs sim.Program
		for i := 0; i < storm; i++ {
			incs = append(incs, opInc(c))
		}
		return []sim.Program{{read}, incs}
	}
	exec, err := sim.RunToCompletion(2, setup, sim.AnchorStormPolicy(0, 1, "c.epoch"), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Complete {
		t.Fatalf("storm run incomplete (schedule %v)", exec.Schedule)
	}
	steps := 0
	for _, e := range exec.Events {
		if e.Kind == sim.EventStep && e.Proc == 0 {
			steps++
		}
	}
	return steps
}

// TestShardedReadStormStarvesLockFreeBaseline pins the starvation the
// helping path closes: under the anchor-storm adversary the pre-helping
// epoch-validated read retries for as long as the storm lasts — its own
// step count grows linearly, with no schedule-independent bound.
func TestShardedReadStormStarvesLockFreeBaseline(t *testing.T) {
	s1, s2, s3 := shardedStormReadSteps(t, 6, false), shardedStormReadSteps(t, 12, false), shardedStormReadSteps(t, 24, false)
	if !(s1 < s2 && s2 < s3) {
		t.Fatalf("lock-free read steps %d/%d/%d do not grow with the storm — the baseline is not starving", s1, s2, s3)
	}
	t.Logf("lock-free read own steps under storms 6/12/24: %d/%d/%d (unbounded growth)", s1, s2, s3)
}

// TestShardedHelpedReadWaitFreeUnderStorm is the progress witness: on the
// SAME adversary schedule, the helped read raises pressure in the epoch's
// high bits, the storm's own writes deposit validated sums, and the read
// adopts — completing within a fixed own-step budget independent of the
// storm length.
func TestShardedHelpedReadWaitFreeUnderStorm(t *testing.T) {
	const fixedBudget = 16
	base := shardedStormReadSteps(t, 6, true)
	if base > fixedBudget {
		t.Fatalf("helped read took %d own steps, want <= %d", base, fixedBudget)
	}
	for _, storm := range []int{12, 24, 48} {
		if got := shardedStormReadSteps(t, storm, true); got != base {
			t.Fatalf("helped read steps = %d under storm %d, want the storm-independent %d", got, storm, base)
		}
	}
	t.Logf("helped read own steps: %d under storms 6/12/24/48 (fixed budget %d)", base, fixedBudget)

	// The deprecated WithReadCache shim is inert: the same registers, and the
	// same read steps on the same schedule.
	names := func(opts ...Option) string {
		w := sim.NewSoloWorld()
		NewCounter(w, "c", 2, 2, opts...)
		return fmt.Sprint(w.ObjectNames())
	}
	if got, want := names(WithReadCache(true)), names(); got != want {
		t.Fatalf("WithReadCache(true) registers %s, want %s", got, want)
	}
	if got := shardedStormReadSteps(t, 6, true, WithReadCache(true)); got != base {
		t.Fatalf("WithReadCache(true): helped read steps = %d, want %d", got, base)
	}
}
