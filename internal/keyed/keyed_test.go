package keyed

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// The keyed objects are verified like every construction in this repo:
// exhaustive strong-linearizability model checks of bounded configurations
// (2 buckets x 2-3 processes, with the same-key two-lane configs forced onto
// multi-word buckets so the collect genuinely spans words), negative twins
// pinning the witness-free reads linearizable-but-NOT-SL, differential
// fuzzing against a mutex-map oracle, and a rehash-under-load proof that a
// bucket-count change loses no acked update.

// pickSpreadKeys returns n keys that hash to n distinct buckets at the given
// bucket count, so tests can pin cross-bucket configurations.
func pickSpreadKeys(buckets, n int) []string {
	used := map[uint64]bool{}
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if b := Hash(k) % uint64(buckets); !used[b] {
			used[b] = true
			out = append(out, k)
		}
	}
	return out
}

// --- sim.Op builders ---------------------------------------------------------

func opKAdd(g *GSet, key string, id int64) sim.Op {
	return sim.Op{
		Name: "add(" + key + ")",
		Spec: spec.MkOp(spec.MethodAdd, id),
		Run: func(t prim.Thread) string {
			if err := g.Add(t, key); err != nil {
				return err.Error()
			}
			return spec.RespOK
		},
	}
}

func opKHas(g *GSet, key string, id int64) sim.Op {
	return sim.Op{
		Name: "has(" + key + ")",
		Spec: spec.MkOp(spec.MethodHas, id),
		Run: func(t prim.Thread) string {
			if g.Has(t, key) {
				return "1"
			}
			return "0"
		},
	}
}

func opKHasWitnessFree(g *GSet, key string, id int64) sim.Op {
	return sim.Op{
		Name: "has-wf(" + key + ")",
		Spec: spec.MkOp(spec.MethodHas, id),
		Run: func(t prim.Thread) string {
			if g.hasWitnessFree(t, key) {
				return "1"
			}
			return "0"
		},
	}
}

func opMInc(m *MonotoneMap, key string, id int64) sim.Op {
	return sim.Op{
		Name: "inc(" + key + ")",
		Spec: spec.MkOp(spec.MethodMapInc, id, 1),
		Run: func(t prim.Thread) string {
			switch err := m.Inc(t, key); {
			case err == nil:
				return spec.RespOK
			case errors.Is(err, ErrKindMismatch):
				return spec.RespKindMismatch
			default:
				return err.Error()
			}
		},
	}
}

func opMMax(m *MonotoneMap, key string, id, v int64) sim.Op {
	return sim.Op{
		Name: fmt.Sprintf("max(%s,%d)", key, v),
		Spec: spec.MkOp(spec.MethodMapMax, id, v),
		Run: func(t prim.Thread) string {
			switch err := m.Max(t, key, v); {
			case err == nil:
				return spec.RespOK
			case errors.Is(err, ErrKindMismatch):
				return spec.RespKindMismatch
			default:
				return err.Error()
			}
		},
	}
}

func opMGet(m *MonotoneMap, key string, id int64) sim.Op {
	return sim.Op{
		Name: "get(" + key + ")",
		Spec: spec.MkOp(spec.MethodMapGet, id),
		Run: func(t prim.Thread) string {
			v, err := m.Get(t, key)
			if errors.Is(err, ErrUnknownKey) {
				return spec.RespNone
			}
			return spec.RespInt(v)
		},
	}
}

func opMGetWitnessFree(m *MonotoneMap, key string, id int64) sim.Op {
	return sim.Op{
		Name: "get-wf(" + key + ")",
		Spec: spec.MkOp(spec.MethodMapGet, id),
		Run: func(t prim.Thread) string {
			v, err := m.getWitnessFree(t, key)
			if errors.Is(err, ErrUnknownKey) {
				return spec.RespNone
			}
			return spec.RespInt(v)
		},
	}
}

func verifySL(t *testing.T, procs int, setup sim.Setup, sp spec.Spec) history.Verdict {
	t.Helper()
	return verifySLWithin(t, 3_000_000, procs, setup, sp)
}

// verifySLWithin is verifySL with an explicit node budget.
func verifySLWithin(t *testing.T, maxNodes, procs int, setup sim.Setup, sp spec.Spec) history.Verdict {
	t.Helper()
	v, err := history.Verify(procs, setup, sp, &sim.ExploreOptions{MaxNodes: maxNodes}, nil)
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

// pinTree asserts the explored tree's size. Each count fixes the sequence of
// prim steps the objects take in that configuration: a change that adds,
// drops or reorders a step changes the tree, so a new count has to be
// explained where it is pinned.
func pinTree(t *testing.T, v history.Verdict, nodes, leaves int) {
	t.Helper()
	if v.Nodes != nodes || v.Leaves != leaves {
		t.Errorf("tree has %d nodes, %d leaves; pinned %d, %d", v.Nodes, v.Leaves, nodes, leaves)
	}
}

// --- Sequential sanity -------------------------------------------------------

func TestKeyedGSetSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	g := NewGSet(w, "g", 2, WithBuckets(2), WithSlots(4))
	if g.Has(sim.SoloThread(0), "alpha") {
		t.Fatal("empty set has alpha")
	}
	for i, key := range []string{"alpha", "beta", "gamma", "alpha"} {
		if err := g.Add(sim.SoloThread(i%2), key); err != nil {
			t.Fatalf("Add(%s): %v", key, err)
		}
	}
	for _, key := range []string{"alpha", "beta", "gamma"} {
		if !g.Has(sim.SoloThread(1), key) {
			t.Fatalf("Has(%s) = false after add", key)
		}
	}
	if g.Has(sim.SoloThread(0), "delta") {
		t.Fatal("Has(delta) = true, never added")
	}
	st := g.Stats(sim.SoloThread(0))
	if st.Keys != 3 || st.Buckets != 2 || st.Generation != 0 {
		t.Fatalf("stats = %+v, want 3 keys / 2 buckets / gen 0", st)
	}
}

func TestKeyedMapSequential(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewMonotoneMap(w, "m", 2, WithBuckets(2), WithSlots(4), WithWidth(16))
	t0, t1 := sim.SoloThread(0), sim.SoloThread(1)
	if err := m.Inc(t0, "hits"); err != nil {
		t.Fatal(err)
	}
	if err := m.IncBy(t1, "hits", 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Max(t0, "peak", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Max(t1, "peak", 3); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Get(t0, "hits"); err != nil || v != 5 {
		t.Fatalf("Get(hits) = %d, %v; want 5", v, err)
	}
	if v, err := m.Get(t1, "peak"); err != nil || v != 7 {
		t.Fatalf("Get(peak) = %d, %v; want 7", v, err)
	}
	if k := m.Kind(t0, "hits"); k != KindCounter {
		t.Fatalf("Kind(hits) = %v, want counter", k)
	}
	if k := m.Kind(t0, "peak"); k != KindMax {
		t.Fatalf("Kind(peak) = %v, want max", k)
	}
	// Max(k, 0) must CREATE the key (the existence bias stores 0 as 1): a
	// reader sees value 0, not ErrUnknownKey.
	if err := m.Max(t0, "floor", 0); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Get(t1, "floor"); err != nil || v != 0 {
		t.Fatalf("Get(floor) after Max 0 = %d, %v; want 0, nil", v, err)
	}
}

func TestKeyedConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewGSet(sim.NewSoloWorld(), "g", 0) },
		func() { NewGSet(sim.NewSoloWorld(), "g", 2, WithSlots(0)) },
		func() { NewGSet(sim.NewSoloWorld(), "g", 2, WithSlots(49)) },
		func() { NewGSet(sim.NewSoloWorld(), "g", 2, WithBuckets(0)) },
		func() { NewGSet(sim.NewSoloWorld(), "g", 2, WithBuckets(8), WithMaxBuckets(4)) },
		func() { NewMonotoneMap(sim.NewSoloWorld(), "m", 0) },
		func() { NewMonotoneMap(sim.NewSoloWorld(), "m", 2, WithWidth(49)) },
		func() { NewMonotoneMap(sim.NewSoloWorld(), "m", 2, WithWidth(1)) },
		func() { NewMonotoneMap(sim.NewSoloWorld(), "m", 2, WithSlots(0)) },
		func() { NewMonotoneMap(sim.NewSoloWorld(), "m", 2, WithBuckets(0)) },
	}
	for i, mk := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			mk()
		}()
	}
}

func TestKeyedMapErrorClasses(t *testing.T) {
	w := prim.NewRealWorld()
	m := NewMonotoneMap(w, "me", 1, WithBuckets(1), WithSlots(4), WithWidth(2)) // field cap 3
	t0 := prim.RealThread(0)
	if err := m.Inc(t0, "c"); err != nil {
		t.Fatal(err)
	}
	if err := m.Max(t0, "c", 2); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("Max on counter key = %v, want ErrKindMismatch", err)
	}
	if err := m.Max(t0, "x", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Inc(t0, "x"); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("Inc on max key = %v, want ErrKindMismatch", err)
	}
	if _, err := m.Get(t0, "ghost"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Get(ghost) = %v, want ErrUnknownKey", err)
	}
	if err := m.IncBy(t0, "c", 0); !errors.Is(err, ErrRange) {
		t.Fatalf("IncBy 0 = %v, want ErrRange", err)
	}
	if err := m.Max(t0, "x", 9); !errors.Is(err, ErrRange) {
		t.Fatalf("Max 9 past cap = %v, want ErrRange", err)
	}
	if err := m.IncBy(t0, "c", 2); !errors.Is(err, ErrBudget) {
		t.Fatalf("IncBy past field cap = %v, want ErrBudget", err)
	}
	if v, err := m.Get(t0, "c"); err != nil || v != 1 {
		t.Fatalf("Get(c) after refused inc = %d, %v; want 1", v, err)
	}
}

func TestKeyedGSetErrFullThenRehashRecovers(t *testing.T) {
	w := prim.NewRealWorld()
	keys := pickSpreadKeys(2, 2) // distinct buckets once grown to 2
	g := NewGSet(w, "gf", 1, WithBuckets(1), WithSlots(1), WithMaxBuckets(4))
	t0 := prim.RealThread(0)
	if err := g.Add(t0, keys[0]); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(t0, keys[1]); !errors.Is(err, ErrFull) {
		t.Fatalf("second key in a 1x1 set = %v, want ErrFull", err)
	}
	if err := g.Rehash(t0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(t0, keys[1]); err != nil {
		t.Fatalf("Add after rehash: %v", err)
	}
	if !g.Has(t0, keys[0]) || !g.Has(t0, keys[1]) {
		t.Fatal("membership lost across rehash")
	}
	st := g.Stats(t0)
	if st.Generation != 1 || st.Rehashes != 1 || st.Buckets != 2 || st.Keys != 2 {
		t.Fatalf("stats after rehash = %+v", st)
	}
	// Growth is monotone: a racing grower's stale request is a no-op.
	if err := g.Rehash(t0, 2); err != nil || g.Stats(t0).Generation != 1 {
		t.Fatalf("no-op rehash moved the table: %v, %+v", err, g.Stats(t0))
	}
}

// pickFailedRehashKeys returns four keys that fill a 2-bucket x 2-slot
// table exactly, overflow one bucket at 3 buckets (three share a residue
// mod 3) and fit again at 4 buckets.
func pickFailedRehashKeys() []string {
	var keys []string
	fits := func(buckets int) bool {
		n := make([]int, buckets)
		for _, k := range keys {
			b := Hash(k) % uint64(buckets)
			if n[b]++; n[b] > 2 {
				return false
			}
		}
		return true
	}
	for i := 0; ; i++ {
		keys = append(keys[:0], fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", i+1), fmt.Sprintf("r%d", i+2), fmt.Sprintf("r%d", i+3))
		if fits(2) && !fits(3) && fits(4) {
			return keys
		}
	}
}

// TestKeyedGSetRehashAfterFailedRehash: a Rehash that fails with ErrFull at
// its target count must not brick the next one — each table build takes
// fresh block names, so the retry cannot collide with the failed attempt's.
func TestKeyedGSetRehashAfterFailedRehash(t *testing.T) {
	keys := pickFailedRehashKeys()
	g := NewGSet(prim.NewRealWorld(), "kg", 1, WithBuckets(2), WithSlots(2))
	t0 := prim.RealThread(0)
	for _, k := range keys {
		if err := g.Add(t0, k); err != nil {
			t.Fatalf("Add(%s): %v", k, err)
		}
	}
	if err := g.Rehash(t0, 3); !errors.Is(err, ErrFull) {
		t.Fatalf("Rehash(3) = %v, want ErrFull", err)
	}
	if err := g.Rehash(t0, 4); err != nil {
		t.Fatalf("Rehash(4) after a failed rehash: %v", err)
	}
	for _, k := range keys {
		if !g.Has(t0, k) {
			t.Fatalf("Has(%s) = false after rehash", k)
		}
	}
	if st := g.Stats(t0); st.Buckets != 4 || st.Generation != 1 || st.Rehashes != 1 {
		t.Fatalf("stats = %+v, want 4 buckets / gen 1 / 1 rehash", st)
	}
}

// TestKeyedMapRehashAfterFailedRehash is the MonotoneMap twin of
// TestKeyedGSetRehashAfterFailedRehash.
func TestKeyedMapRehashAfterFailedRehash(t *testing.T) {
	keys := pickFailedRehashKeys()
	m := NewMonotoneMap(prim.NewRealWorld(), "km", 1, WithBuckets(2), WithSlots(2))
	t0 := prim.RealThread(0)
	for i, k := range keys {
		if err := m.IncBy(t0, k, int64(i+1)); err != nil {
			t.Fatalf("IncBy(%s): %v", k, err)
		}
	}
	if err := m.Rehash(t0, 3); !errors.Is(err, ErrFull) {
		t.Fatalf("Rehash(3) = %v, want ErrFull", err)
	}
	if err := m.Rehash(t0, 4); err != nil {
		t.Fatalf("Rehash(4) after a failed rehash: %v", err)
	}
	for i, k := range keys {
		if v, err := m.Get(t0, k); err != nil || v != int64(i+1) {
			t.Fatalf("Get(%s) = %d, %v; want %d", k, v, err, i+1)
		}
	}
	if st := m.Stats(t0); st.Buckets != 4 || st.Generation != 1 || st.Rehashes != 1 {
		t.Fatalf("stats = %+v, want 4 buckets / gen 1 / 1 rehash", st)
	}
}

// TestKeyedRehashAllocsPerBucket pins what one 8-lane rehash from 4096 to
// 8192 buckets allocates. Empty, it makes at most 2 heap objects per new
// bucket (one named block per field, not a named register per word, epoch
// and bound flag). With 4096 resident keys, each migrated key adds its new
// entry and directory slot but no new lanes x 8 B shadow: the new entry
// takes the old entry's.
func TestKeyedRehashAllocsPerBucket(t *testing.T) {
	const lanes, from, to, resident = 8, 4096, 8192, 4096
	// 214 B per key measured with Go 1.24: a 48 B entry plus the new
	// directory maps' growth. A fresh shadow per key adds 64 B (278 B).
	const maxBytesPerKey = 246
	th := prim.RealThread(0)
	keys := make([]string, resident)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	cases := []struct {
		name  string
		build func(keys []string) func() error
	}{
		{"map", func(keys []string) func() error {
			m := NewMonotoneMap(prim.NewRealWorld(), "km", lanes, WithBuckets(from))
			for _, k := range keys {
				if err := m.Inc(th, k); err != nil {
					t.Fatalf("map: Inc(%s): %v", k, err)
				}
			}
			return func() error { return m.Rehash(th, to) }
		}},
		{"gset", func(keys []string) func() error {
			g := NewGSet(prim.NewRealWorld(), "kg", lanes, WithBuckets(from))
			for _, k := range keys {
				if err := g.Add(th, k); err != nil {
					t.Fatalf("gset: Add(%s): %v", k, err)
				}
			}
			return func() error { return g.Rehash(th, to) }
		}},
	}
	measure := func(name string, rehash func() error) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := rehash()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: Rehash: %v", name, err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range cases {
		mallocs, emptyBytes := measure(c.name, c.build(nil))
		if per := float64(mallocs) / to; per > 2 {
			t.Errorf("%s: empty rehash %d->%d made %.1f allocs per new bucket, want <= 2", c.name, from, to, per)
		}
		_, bytes := measure(c.name, c.build(keys))
		per := float64(bytes-emptyBytes) / resident
		if per > maxBytesPerKey {
			t.Errorf("%s: rehash %d->%d allocated %.1f B per migrated key beyond the empty rehash, want <= %d",
				c.name, from, to, per, maxBytesPerKey)
		}
	}
}

// --- Bounded model checks ----------------------------------------------------

// TestKeyedGSetStrongLinTwoBuckets: adds to two distinct buckets with a
// cross-bucket reader — the base SL check of the hashed universe.
func TestKeyedGSetStrongLinTwoBuckets(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	keys := pickSpreadKeys(2, 2)
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, WithBuckets(2), WithSlots(4))
		return []sim.Program{
			{opKAdd(g, keys[0], 1)},
			{opKAdd(g, keys[1], 2)},
			{opKHas(g, keys[0], 1), opKHas(g, keys[1], 2)},
		}
	}
	pinTree(t, verifySL(t, 3, setup, spec.GSet{}), 1_561_859, 431_844)
}

// TestKeyedGSetStrongLinSameKeyMultiWord: the same key added from two lanes
// that live in DIFFERENT words (slots=25 forces one lane per word), so the
// reader's collect genuinely spans words and the epoch witness carries the
// proof. The reader runs two Has, so its second read must stay consistent
// with whatever the first committed to. The tree has 3,666,875 nodes and
// 1,035,674 leaves, past verifySL's budget, hence the explicit MaxNodes.
func TestKeyedGSetStrongLinSameKeyMultiWord(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, WithBuckets(1), WithSlots(25))
		return []sim.Program{
			{opKAdd(g, "k", 1)},
			{opKAdd(g, "k", 1)},
			{opKHas(g, "k", 1), opKHas(g, "k", 1)},
		}
	}
	pinTree(t, verifySLWithin(t, 4_000_000, 3, setup, spec.GSet{}), 3_666_875, 1_035_674)
}

// TestKeyedGSetWitnessFreeNotStrongLin pins the negative twin: the same
// configuration read without the closing epoch/table witnesses is
// linearizable (membership is monotone) but NOT strongly linearizable — the
// reader's miss commitment does not survive every future.
func TestKeyedGSetWitnessFreeNotStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, WithBuckets(1), WithSlots(25))
		return []sim.Program{
			{opKAdd(g, "k", 1)},
			{opKAdd(g, "k", 1)},
			{opKHasWitnessFree(g, "k", 1), opKHasWitnessFree(g, "k", 1)},
		}
	}
	v, err := history.Verify(3, setup, spec.GSet{}, &sim.ExploreOptions{MaxNodes: 3_000_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable {
		t.Fatalf("witness-free membership should be linearizable; violation: %s", v.LinViolation)
	}
	if v.StrongLin.Ok {
		t.Fatal("witness-free keyed gset verified strongly linearizable; expected a refutation")
	}
	pinTree(t, v, 848_610, 261_749)
}

// TestKeyedMapStrongLinSameKeyMultiWord: two lanes incrementing one key
// striped over two words (width=25), with an epoch-validated reader. Two
// processes — the binding first write's landed-flag step (see
// MonotoneMap.grow) pushes the dedicated-reader three-process version past
// any workable node budget. The write/write race still pits binder against non-binder lane,
// and the reader's two-word validated collect still overlaps the other
// lane's inc end to end.
func TestKeyedMapStrongLinSameKeyMultiWord(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMonotoneMap(w, "m", 2, WithBuckets(1), WithSlots(1), WithWidth(25))
		return []sim.Program{
			{opMInc(m, "k", 1)},
			{opMInc(m, "k", 1), opMGet(m, "k", 1)},
		}
	}
	pinTree(t, verifySL(t, 2, setup, spec.KeyedMap{}), 13_076, 1_881)
}

// TestKeyedMapStrongLinTwoBucketsMixedKinds: a counter key and a max key in
// distinct buckets, the reader visiting both with the two-read reader shape
// (commit a value for one key, then observe the other — the shape the
// witness-free twin refutes). Two processes: the three-process version of
// this configuration exceeds any workable node budget, and writer/writer
// concurrency across distinct buckets touches disjoint engine state anyway.
func TestKeyedMapStrongLinTwoBucketsMixedKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	keys := pickSpreadKeys(2, 2)
	setup := func(w *sim.World) []sim.Program {
		m := NewMonotoneMap(w, "m", 2, WithBuckets(2), WithSlots(1), WithWidth(20))
		return []sim.Program{
			{opMInc(m, keys[0], 1), opMMax(m, keys[1], 2, 5)},
			{opMGet(m, keys[0], 1), opMGet(m, keys[1], 2)},
		}
	}
	pinTree(t, verifySL(t, 2, setup, spec.KeyedMap{}), 1_265_534, 218_085)
}

// TestKeyedMapStrongLinKindRace: concurrent first writes of conflicting
// kinds to one key — whichever claims the directory first binds the kind and
// the loser's refusal must linearize after it.
func TestKeyedMapStrongLinKindRace(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewMonotoneMap(w, "m", 2, WithBuckets(1), WithSlots(1), WithWidth(20))
		return []sim.Program{
			{opMInc(m, "k", 1)},
			{opMMax(m, "k", 1, 3)},
		}
	}
	pinTree(t, verifySL(t, 2, setup, spec.KeyedMap{}), 213, 60)
}

// TestKeyedMapStrongLinKindRaceWithReader extends the kind race with a get
// by the refused process — the shape that caught an eager-refusal bug: a
// refusal observed from a bare directory claim committed "key bound" while
// the binding write had not landed, so the refused process's next get still
// committed "unknown", an ordering no sequential history allows (the get
// would have to precede the inc, which must precede the refusal, which
// completed before the get began). The fix awaits the slot's bound flag
// before refusing; this check pins both linearizability and SL of the trio.
func TestKeyedMapStrongLinKindRaceWithReader(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		m := NewMonotoneMap(w, "m", 2, WithBuckets(1), WithSlots(1), WithWidth(20))
		return []sim.Program{
			{opMInc(m, "k", 1)},
			{opMMax(m, "k", 1, 3), opMGet(m, "k", 1)},
		}
	}
	pinTree(t, verifySL(t, 2, setup, spec.KeyedMap{}), 1_664, 335)
}

// TestKeyedMapWitnessFreeNotStrongLin: the negative twin for the map read.
// One unvalidated two-word collect racing both writer lanes is already
// refutable — the sum it commits mid-collect does not survive every future —
// so the reader runs a single witness-free get; both writer processes are
// essential (a reader sharing a lane with one writer explores no refuting
// schedule, and the landed-flag step prices the two-read reader out of the
// node budget).
func TestKeyedMapWitnessFreeNotStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model check; skipped in -short mode")
	}
	setup := func(w *sim.World) []sim.Program {
		m := NewMonotoneMap(w, "m", 2, WithBuckets(1), WithSlots(1), WithWidth(25))
		return []sim.Program{
			{opMInc(m, "k", 1)},
			{opMInc(m, "k", 1)},
			{opMGetWitnessFree(m, "k", 1)},
		}
	}
	v, err := history.Verify(3, setup, spec.KeyedMap{}, &sim.ExploreOptions{MaxNodes: 3_000_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Linearizable {
		t.Fatalf("witness-free get should be linearizable; violation: %s", v.LinViolation)
	}
	if v.StrongLin.Ok {
		t.Fatal("witness-free keyed map verified strongly linearizable; expected a refutation")
	}
	pinTree(t, v, 245_309, 77_550)
}

// --- Rehash under load -------------------------------------------------------

// TestKeyedRehashUnderLoadZeroLostAcks drives concurrent writers through
// multiple live bucket-count changes and proves the cutover loses no acked
// update: every acked Inc is in the final sum, every acked Add is a member.
func TestKeyedRehashUnderLoadZeroLostAcks(t *testing.T) {
	const (
		lanes   = 4
		nKeys   = 40
		opsEach = 1500
	)
	w := prim.NewRealWorld()
	g := NewGSet(w, "g", lanes, WithBuckets(2), WithSlots(48), WithMaxBuckets(64))
	m := NewMonotoneMap(w, "m", lanes, WithBuckets(2), WithSlots(24), WithWidth(30), WithMaxBuckets(64))
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%d", i)
	}

	ackedInc := make([]map[string]int64, lanes) // per-lane: no locks needed
	ackedAdd := make([]map[string]bool, lanes)
	var wg sync.WaitGroup
	gates := make([]chan struct{}, 3) // writers pause here so rehashes interleave mid-stream
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	for p := 0; p < lanes; p++ {
		ackedInc[p] = make(map[string]int64)
		ackedAdd[p] = make(map[string]bool)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := prim.RealThread(p)
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for i := 0; i < opsEach; i++ {
				if i%(opsEach/4) == opsEach/8 && i/(opsEach/4) < len(gates) {
					<-gates[i/(opsEach/4)]
				}
				key := keys[rng.Intn(nKeys)]
				d := int64(rng.Intn(3) + 1)
				if err := m.IncBy(th, key, d); err != nil {
					t.Errorf("IncBy(%s): %v", key, err)
					return
				}
				ackedInc[p][key] += d
				skey := keys[rng.Intn(nKeys)]
				if err := g.Add(th, skey); err != nil {
					t.Errorf("Add(%s): %v", skey, err)
					return
				}
				ackedAdd[p][skey] = true
			}
		}(p)
	}

	tr := prim.RealThread(lanes) // the migrator's identity
	for i, buckets := range []int{4, 8, 16} {
		if err := g.Rehash(tr, buckets); err != nil {
			t.Fatalf("gset rehash to %d: %v", buckets, err)
		}
		if err := m.Rehash(tr, buckets); err != nil {
			t.Fatalf("map rehash to %d: %v", buckets, err)
		}
		close(gates[i]) // release the writers' next quarter under the new table
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := make(map[string]int64)
	for p := 0; p < lanes; p++ {
		for k, v := range ackedInc[p] {
			want[k] += v
		}
	}
	for k, v := range want {
		got, err := m.Get(prim.RealThread(0), k)
		if err != nil || got != v {
			t.Fatalf("Get(%s) = %d, %v; want %d acked", k, got, err, v)
		}
	}
	for p := 0; p < lanes; p++ {
		for k := range ackedAdd[p] {
			if !g.Has(prim.RealThread(0), k) {
				t.Fatalf("acked Add(%s) lost across rehash", k)
			}
		}
	}
	if gs := g.Stats(prim.RealThread(0)); gs.Generation != 3 || gs.Buckets != 16 {
		t.Fatalf("gset stats after three rehashes: %+v", gs)
	}
	if ms := m.Stats(prim.RealThread(0)); ms.Generation != 3 || ms.Buckets != 16 {
		t.Fatalf("map stats after three rehashes: %+v", ms)
	}
}

// --- Differential fuzz vs a mutex-map oracle ---------------------------------

type oracleEntry struct {
	kind Kind
	v    int64
}

// kmOracle is the mutex-map oracle: the obviously-correct sequential
// semantics of the keyed universe, used to differential-test solo runs
// (exact response equality) and concurrent runs (acked-op convergence).
type kmOracle struct {
	mu  sync.Mutex
	m   map[string]oracleEntry
	set map[string]bool
	cap int64
}

func newOracle(cap int64) *kmOracle {
	return &kmOracle{m: make(map[string]oracleEntry), set: make(map[string]bool), cap: cap}
}

func (o *kmOracle) incBy(key string, d int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if d < 1 || d > o.cap {
		return ErrRange
	}
	e, ok := o.m[key]
	if ok && e.kind != KindCounter {
		return ErrKindMismatch
	}
	if e.v+d > o.cap {
		return ErrBudget
	}
	o.m[key] = oracleEntry{KindCounter, e.v + d}
	return nil
}

func (o *kmOracle) maxTo(key string, v int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v < 0 || v > o.cap {
		return ErrRange
	}
	e, ok := o.m[key]
	if ok && e.kind != KindMax {
		return ErrKindMismatch
	}
	o.m[key] = oracleEntry{KindMax, max(e.v, v)}
	return nil
}

func (o *kmOracle) get(key string) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.m[key]
	if !ok {
		return 0, ErrUnknownKey
	}
	return e.v, nil
}

// runSoloDifferential drives one deterministic op script against a fresh
// 1-lane map+set and the oracle, requiring exact agreement on every value
// and error. ErrFull resolves by growing both sides' view (rehash), which
// must itself be invisible.
func runSoloDifferential(t *testing.T, script []byte) {
	t.Helper()
	w := prim.NewRealWorld()
	const width = 3 // field cap 6: small enough that scripts hit ErrBudget
	m := NewMonotoneMap(w, "dm", 1, WithBuckets(1), WithSlots(2), WithWidth(width), WithMaxBuckets(64))
	g := NewGSet(w, "dg", 1, WithBuckets(1), WithSlots(2), WithMaxBuckets(64))
	o := newOracle(m.FieldCap())
	th := prim.RealThread(0)
	keys := []string{"a", "bb", "ccc", "d4", "e-5", "f#6"}
	for i := 0; i+2 < len(script); i += 3 {
		op, key, arg := script[i]%6, keys[int(script[i+1])%len(keys)], int64(script[i+2]%10)
		switch op {
		case 0, 1: // inc
			want := o.incBy(key, arg)
			got := m.IncBy(th, key, arg)
			for errors.Is(got, ErrFull) {
				if err := m.Rehash(th, m.Buckets(th)*2); err != nil {
					t.Fatalf("step %d: rehash: %v", i, err)
				}
				got = m.IncBy(th, key, arg)
			}
			if !errors.Is(got, want) && (got != nil || want != nil) {
				t.Fatalf("step %d: IncBy(%s, %d) = %v, oracle %v", i, key, arg, got, want)
			}
		case 2: // max
			want := o.maxTo(key, arg)
			got := m.Max(th, key, arg)
			for errors.Is(got, ErrFull) {
				if err := m.Rehash(th, m.Buckets(th)*2); err != nil {
					t.Fatalf("step %d: rehash: %v", i, err)
				}
				got = m.Max(th, key, arg)
			}
			if !errors.Is(got, want) && (got != nil || want != nil) {
				t.Fatalf("step %d: Max(%s, %d) = %v, oracle %v", i, key, arg, got, want)
			}
		case 3: // get
			wantV, wantErr := o.get(key)
			gotV, gotErr := m.Get(th, key)
			if !errors.Is(gotErr, wantErr) && (gotErr != nil || wantErr != nil) {
				t.Fatalf("step %d: Get(%s) err = %v, oracle %v", i, key, gotErr, wantErr)
			}
			if gotErr == nil && gotV != wantV {
				t.Fatalf("step %d: Get(%s) = %d, oracle %d", i, key, gotV, wantV)
			}
		case 4: // set add
			got := g.Add(th, key)
			for errors.Is(got, ErrFull) {
				if err := g.Rehash(th, g.Buckets(th)*2); err != nil {
					t.Fatalf("step %d: gset rehash: %v", i, err)
				}
				got = g.Add(th, key)
			}
			if got != nil {
				t.Fatalf("step %d: Add(%s) = %v", i, key, got)
			}
			o.mu.Lock()
			o.set[key] = true
			o.mu.Unlock()
		case 5: // set has
			o.mu.Lock()
			want := o.set[key]
			o.mu.Unlock()
			if got := g.Has(th, key); got != want {
				t.Fatalf("step %d: Has(%s) = %v, oracle %v", i, key, got, want)
			}
		}
	}
}

func TestKeyedDifferentialVsMutexOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 600)
		rng.Read(script)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runSoloDifferential(t, script) })
	}
}

// FuzzKeyedVsOracle lets the fuzzer drive the solo differential with
// arbitrary op scripts (`go test -fuzz=FuzzKeyedVsOracle ./internal/keyed`).
func FuzzKeyedVsOracle(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3, 0, 0, 2, 1, 5, 4, 2, 0, 5, 2, 0})
	f.Add([]byte{1, 0, 9, 1, 0, 9, 3, 0, 0, 2, 0, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*1024 {
			script = script[:3*1024]
		}
		runSoloDifferential(t, script)
	})
}

// TestKeyedConcurrentConvergence: monotone ops commute, so after a join the
// engine must agree exactly with an oracle replay of every acked op — under
// genuine goroutine concurrency, at a multi-word shape.
func TestKeyedConcurrentConvergence(t *testing.T) {
	const lanes, ops = 4, 3000
	w := prim.NewRealWorld()
	m := NewMonotoneMap(w, "cm", lanes, WithBuckets(4), WithSlots(8), WithWidth(24))
	keys := []string{"q", "r", "s", "tt", "uu", "vv", "w7", "x8"} // counters
	mkeys := []string{"m1", "m2", "m3"}                           // max registers
	type acked struct {
		inc map[string]int64
		mx  map[string]int64
	}
	per := make([]acked, lanes)
	var wg sync.WaitGroup
	for p := 0; p < lanes; p++ {
		per[p] = acked{inc: map[string]int64{}, mx: map[string]int64{}}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := prim.RealThread(p)
			rng := rand.New(rand.NewSource(int64(7 + p)))
			for i := 0; i < ops; i++ {
				if rng.Intn(3) == 0 {
					k, v := mkeys[rng.Intn(len(mkeys))], int64(rng.Intn(1000))
					if err := m.Max(th, k, v); err != nil {
						t.Errorf("Max: %v", err)
						return
					}
					per[p].mx[k] = max(per[p].mx[k], v)
				} else {
					k, d := keys[rng.Intn(len(keys))], int64(rng.Intn(4)+1)
					if err := m.IncBy(th, k, d); err != nil {
						t.Errorf("IncBy: %v", err)
						return
					}
					per[p].inc[k] += d
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	th := prim.RealThread(0)
	for _, k := range keys {
		var want int64
		for p := range per {
			want += per[p].inc[k]
		}
		if got, err := m.Get(th, k); err != nil || got != want {
			t.Fatalf("Get(%s) = %d, %v; oracle replay %d", k, got, err, want)
		}
	}
	for _, k := range mkeys {
		var want int64
		for p := range per {
			want = max(want, per[p].mx[k])
		}
		if got, err := m.Get(th, k); err != nil || got != want {
			t.Fatalf("Get(%s) = %d, %v; oracle replay %d", k, got, err, want)
		}
	}
}

// --- Allocation discipline ---------------------------------------------------

// TestKeyedPackedPathZeroAllocs pins the acceptance bar: on packed
// (one-word-bucket) shapes, steady-state Add/Has and Inc/Get perform zero
// heap allocations per op.
func TestKeyedPackedPathZeroAllocs(t *testing.T) {
	w := prim.NewRealWorld()
	g := NewGSet(w, "zg", 4, WithBuckets(4), WithSlots(8))                       // 4x8 bits: 1 word
	m := NewMonotoneMap(w, "zm", 2, WithBuckets(4), WithSlots(2), WithWidth(12)) // 4x12 bits: 1 word
	if !g.Stats(prim.RealThread(0)).Packed || !m.Stats(prim.RealThread(0)).Packed {
		t.Fatal("test shapes must be packed")
	}
	th := prim.RealThread(1)
	if err := g.Add(th, "hot"); err != nil {
		t.Fatal(err)
	}
	if err := m.Inc(th, "hits"); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"gset-add", func() { _ = g.Add(th, "hot") }},
		{"gset-has", func() { _ = g.Has(th, "hot") }},
		{"gset-miss", func() { _ = g.Has(th, "cold") }},
		{"map-inc", func() { _ = m.Inc(th, "hits") }},
		{"map-get", func() { _, _ = m.Get(th, "hits") }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
	}
}
