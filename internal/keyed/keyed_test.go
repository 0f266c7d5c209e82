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

// TestKeyedMapGetKindAgreesWithGetAndKind: GetKind's one read answers
// what Get followed by Kind does, on counter, max and unknown keys.
func TestKeyedMapGetKindAgreesWithGetAndKind(t *testing.T) {
	w := sim.NewSoloWorld()
	m := NewMonotoneMap(w, "m", 2, WithBuckets(2), WithSlots(4), WithWidth(16))
	t0, t1 := sim.SoloThread(0), sim.SoloThread(1)
	for _, err := range []error{m.IncBy(t0, "hits", 3), m.Inc(t1, "hits"), m.Max(t0, "peak", 7), m.Max(t1, "floor", 0)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"hits", "peak", "floor", "ghost"} {
		v, kind, err := m.GetKind(t1, key)
		wv, werr := m.Get(t0, key)
		wkind := m.Kind(t0, key)
		if v != wv || kind != wkind || err != werr {
			t.Errorf("GetKind(%s) = %d, %v, %v; Get + Kind = %d, %v, %v", key, v, kind, err, wv, wkind, werr)
		}
	}
	if _, kind, err := m.GetKind(t0, "ghost"); kind != KindNone || err != ErrUnknownKey {
		t.Errorf("GetKind(ghost) = %v, %v; want none, ErrUnknownKey", kind, err)
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
// table exactly, make Rehash(3) fail with ErrFull and fit a fresh table
// rehashed to 4 buckets. It asks the engine itself, so the keys follow
// whatever placement rule claim applies.
func pickFailedRehashKeys(t *testing.T) []string {
	th := prim.RealThread(0)
	// rehash adds keys to a fresh 2x2 set and grows it to n buckets; it
	// reports false if the keys do not fit 2x2.
	rehash := func(keys []string, n int) (bool, error) {
		g := NewGSet(prim.NewRealWorld(), "pick", 1, WithBuckets(2), WithSlots(2))
		for _, k := range keys {
			if g.Add(th, k) != nil {
				return false, nil
			}
		}
		return true, g.Rehash(th, n)
	}
	for i := 0; i < 10_000; i++ {
		keys := []string{fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", i+1), fmt.Sprintf("r%d", i+2), fmt.Sprintf("r%d", i+3)}
		if ok, err := rehash(keys, 3); !ok || !errors.Is(err, ErrFull) {
			continue
		}
		if _, err := rehash(keys, 4); err == nil {
			return keys
		}
	}
	t.Fatal("no four keys fill 2x2, overflow at 3 buckets and fit at 4")
	return nil
}

// TestKeyedGSetRehashAfterFailedRehash: a Rehash that fails with ErrFull at
// its target count must not brick the next one — each table build takes
// fresh block names, so the retry cannot collide with the failed attempt's.
func TestKeyedGSetRehashAfterFailedRehash(t *testing.T) {
	keys := pickFailedRehashKeys(t)
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
	keys := pickFailedRehashKeys(t)
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

// TestKeyedRehashSlotsDeterministic: tables built from the same key
// sequence and rehashed through the same bucket counts give every key the
// same slot, in the real and the simulated world. Rehash migrates each old
// bucket's keys in slot order; several keys of one old bucket share a new
// bucket here, so any other order would show.
func TestKeyedRehashSlotsDeterministic(t *testing.T) {
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	worlds := []struct {
		name string
		new  func() (prim.World, prim.Thread)
	}{
		{"real", func() (prim.World, prim.Thread) { return prim.NewRealWorld(), prim.RealThread(0) }},
		{"sim", func() (prim.World, prim.Thread) { return sim.NewSoloWorld(), sim.SoloThread(0) }},
	}
	objects := []struct {
		name  string
		build func(w prim.World, th prim.Thread) *engine
	}{
		{"gset", func(w prim.World, th prim.Thread) *engine {
			g := NewGSet(w, "dg", 2, WithBuckets(2), WithSlots(24))
			for _, k := range keys {
				if err := g.Add(th, k); err != nil {
					t.Fatalf("Add(%s): %v", k, err)
				}
			}
			return &g.engine
		}},
		{"map", func(w prim.World, th prim.Thread) *engine {
			m := NewMonotoneMap(w, "dm", 2, WithBuckets(2), WithSlots(24), WithWidth(8))
			for _, k := range keys {
				if err := m.Inc(th, k); err != nil {
					t.Fatalf("Inc(%s): %v", k, err)
				}
			}
			return &m.engine
		}},
	}
	for _, wd := range worlds {
		for _, ob := range objects {
			// slots builds a table, rehashes it 2 -> 4 -> 8 buckets and
			// returns every key's slot.
			slots := func() []int {
				w, th := wd.new()
				e := ob.build(w, th)
				for _, n := range []int{4, 8} {
					if err := e.Rehash(th, n); err != nil {
						t.Fatalf("%s/%s: Rehash(%d): %v", wd.name, ob.name, n, err)
					}
				}
				out := make([]int, len(keys))
				for i, k := range keys {
					r, en := e.lookup(th, k)
					if en == nil {
						t.Fatalf("%s/%s: %s lost by the rehash", wd.name, ob.name, k)
					}
					out[i] = r.s
				}
				return out
			}
			want := slots()
			for run := 1; run < 8; run++ {
				if got := slots(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s/%s: build %d gave slots %v, build 0 gave %v", wd.name, ob.name, run, got, want)
				}
			}
		}
	}
}

// TestKeyedRehashAllocsPerBucket pins what one 8-lane rehash from 4096 to
// 8192 buckets allocates. Empty, it makes a constant number of heap objects
// (one block per field and the bucket array), so at most 0.01 per new
// bucket, and a new bucket costs its registers in flat blocks plus its
// 64 B directory header: no interface per register, no directory until a
// key arrives. With 4096 resident keys, a migrated key costs only its share
// of the directories the rehash allocates, at most 2 mallocs (a dir and its
// tags) per key: the new generation holds the old entries themselves.
func TestKeyedRehashAllocsPerBucket(t *testing.T) {
	const lanes, from, to, resident = 8, 4096, 8192, 4096
	const maxAllocsPerBucket, maxAllocsPerKey = 0.01, 2
	th := prim.RealThread(0)
	keys := make([]string, resident)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	// The byte bounds sit above what Go 1.24 measures. Per new bucket: map
	// 712 B (64 words, 8 bound flags, a 64 B header), gset 96 B; with the
	// registers and bound flags in the header (176 B) they were 824 B and
	// 208 B, and one interface per register and a Go map per directory made
	// them 1,960 B and 240 B at 1.0 allocs each. Per migrated key: map 64 B
	// (8-slot directories and their tags), gset 129 B (16-slot ones), at
	// 1.8 mallocs; a fresh 64 B entry per key made them 129 B and 193 B at
	// 2.8 mallocs.
	cases := []struct {
		name                string
		maxBucketB, maxKeyB float64
		build               func(keys []string) func() error
	}{
		{"map", 768, 96, func(keys []string) func() error {
			m := NewMonotoneMap(prim.NewRealWorld(), "km", lanes, WithBuckets(from))
			for _, k := range keys {
				if err := m.Inc(th, k); err != nil {
					t.Fatalf("map: Inc(%s): %v", k, err)
				}
			}
			return func() error { return m.Rehash(th, to) }
		}},
		{"gset", 128, 160, func(keys []string) func() error {
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
		emptyMallocs, emptyBytes := measure(c.name, c.build(nil))
		if per := float64(emptyMallocs) / to; per > maxAllocsPerBucket {
			t.Errorf("%s: empty rehash %d->%d made %.3f allocs per new bucket, want <= %g", c.name, from, to, per, maxAllocsPerBucket)
		}
		if per := float64(emptyBytes) / to; per > c.maxBucketB {
			t.Errorf("%s: empty rehash %d->%d allocated %.1f B per new bucket, want <= %g", c.name, from, to, per, c.maxBucketB)
		}
		mallocs, bytes := measure(c.name, c.build(keys))
		perKeyMallocs, perKeyB := float64(mallocs-emptyMallocs)/resident, float64(bytes-emptyBytes)/resident
		t.Logf("%s: %.0f B per new bucket; %.1f B and %.2f mallocs per migrated key", c.name,
			float64(emptyBytes)/to, perKeyB, perKeyMallocs)
		if perKeyB > c.maxKeyB {
			t.Errorf("%s: rehash %d->%d allocated %.1f B per migrated key beyond the empty rehash, want <= %g",
				c.name, from, to, perKeyB, c.maxKeyB)
		}
		if perKeyMallocs > maxAllocsPerKey {
			t.Errorf("%s: rehash %d->%d made %.2f mallocs per migrated key beyond the empty rehash, want <= %d",
				c.name, from, to, perKeyMallocs, maxAllocsPerKey)
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
// The first input is the same race in one word (slots=2, one adder): a
// first-add claim against the two-Has reader, small enough for -short.
func TestKeyedGSetStrongLinSameKeyMultiWord(t *testing.T) {
	oneWord := func(w *sim.World) []sim.Program {
		g := NewGSet(w, "g", 2, WithBuckets(1), WithSlots(2))
		return []sim.Program{
			{opKAdd(g, "k", 1)},
			{opKHas(g, "k", 1), opKHas(g, "k", 1)},
		}
	}
	pinTree(t, verifySL(t, 2, oneWord, spec.GSet{}), 1_066, 245)
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

// TestKeyedTwoChoiceClaimRace: eight goroutines, one per lane, first-claim
// the same keys at once, each key with two distinct candidate buckets, so
// claims of one key race for both candidates' locks, and each goroutine
// looks a key up (Get, Has) before it writes it, so lookups scan buckets
// whose first claims are landing. Afterwards every key has exactly one
// entry across its candidates, the tables track exactly the distinct keys,
// and every map value is the sum of its increments.
func TestKeyedTwoChoiceClaimRace(t *testing.T) {
	const lanes, buckets, slots, rounds = 8, 16, 16, 3
	w := prim.NewRealWorld()
	m := NewMonotoneMap(w, "rm", lanes, WithBuckets(buckets), WithSlots(slots))
	g := NewGSet(w, "rg", lanes, WithBuckets(buckets), WithSlots(slots))
	th := prim.RealThread(0)
	tb := m.table.ReadAny(th).(*table)
	var keys []string
	cands := make([]int, buckets) // keys that may land in each bucket
	for i := 0; len(keys) < 48; i++ {
		k := fmt.Sprintf("c%d", i)
		if b1, b2 := tb.candidates(Hash(k)); b1 != b2 {
			keys = append(keys, k)
			cands[b1]++
			cands[b2]++
		}
	}
	for b, n := range cands {
		if n > slots {
			t.Fatalf("bucket %d is a candidate of %d keys, more than its %d slots: claims could see ErrFull", b, n, slots)
		}
	}
	const want = rounds * lanes * (lanes + 1) / 2
	start := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < lanes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := prim.RealThread(p)
			<-start
			for r := 0; r < rounds; r++ {
				for _, k := range keys {
					if v, err := m.Get(th, k); (err != nil && !errors.Is(err, ErrUnknownKey)) || v > want {
						t.Errorf("Get(%s) = %d, %v mid-race", k, v, err)
						return
					}
					g.Has(th, k)
					if err := m.IncBy(th, k, int64(p+1)); err != nil {
						t.Errorf("IncBy(%s): %v", k, err)
						return
					}
					if err := g.Add(th, k); err != nil {
						t.Errorf("Add(%s): %v", k, err)
						return
					}
				}
			}
		}(p)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, e := range []*engine{&m.engine, &g.engine} {
		tb := e.table.ReadAny(th).(*table)
		for _, k := range keys {
			b1, b2 := tb.candidates(Hash(k))
			n := 0
			for _, b := range []int{b1, b2} {
				for _, en := range tb.buckets[b].entries() {
					if en.key == k {
						n++
					}
				}
			}
			if n != 1 {
				t.Errorf("%s: %s has %d entries across buckets %d and %d, want 1", e.name, k, n, b1, b2)
			}
		}
		if st := e.Stats(th); st.Keys != len(keys) || st.Rehashes != 0 {
			t.Errorf("%s: stats = %+v, want %d keys and no rehash", e.name, st, len(keys))
		}
	}
	for _, k := range keys {
		if v, err := m.Get(th, k); err != nil || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d", k, v, err, want)
		}
		if !g.Has(th, k) {
			t.Errorf("Has(%s) = false", k)
		}
	}
}

// TestKeyedDoublingAlwaysFits grows a one-slot map and a two-slot set to a
// few thousand keys by doubling alone: every ErrFull is answered with
// Rehash(2n), which must fit, as slserve's growFull assumes. A rehash that
// re-ran the writers' greedy two-choice placement would fill both
// candidates of some key within a few hundred buckets, and fail the same
// way on every retry.
func TestKeyedDoublingAlwaysFits(t *testing.T) {
	const maxBuckets = 1 << 20
	th := prim.RealThread(0)
	m := NewMonotoneMap(prim.NewRealWorld(), "dm", 1, WithBuckets(1), WithSlots(1), WithMaxBuckets(maxBuckets))
	g := NewGSet(prim.NewRealWorld(), "dg", 1, WithBuckets(1), WithSlots(2), WithMaxBuckets(maxBuckets))
	objects := []struct {
		name  string
		keys  int
		e     *engine
		write func(k string, i int) error
	}{
		{"map", 2000, &m.engine, func(k string, i int) error { return m.IncBy(th, k, int64(i%7+1)) }},
		{"set", 3000, &g.engine, func(k string, _ int) error { return g.Add(th, k) }},
	}
	for _, ob := range objects {
		doublings := 0
		for i := 0; i < ob.keys; i++ {
			k := fmt.Sprintf("g%05d", i)
			err := ob.write(k, i)
			for errors.Is(err, ErrFull) {
				n := ob.e.Buckets(th)
				if gerr := ob.e.Rehash(th, 2*n); gerr != nil {
					t.Fatalf("%s: key %d: Rehash(%d -> %d) = %v", ob.name, i, n, 2*n, gerr)
				}
				doublings++
				err = ob.write(k, i)
			}
			if err != nil {
				t.Fatalf("%s: write %s: %v", ob.name, k, err)
			}
		}
		st := ob.e.Stats(th)
		t.Logf("%s: %d keys in %d buckets x %d slots after %d doublings", ob.name, st.Keys, st.Buckets, st.Slots, doublings)
		if st.Keys != ob.keys {
			t.Fatalf("%s: %d keys, want %d", ob.name, st.Keys, ob.keys)
		}
	}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("g%05d", i)
		if v, err := m.Get(th, k); err != nil || v != int64(i%7+1) {
			t.Fatalf("Get(%s) = %d, %v; want %d", k, v, err, i%7+1)
		}
	}
	for i := 0; i < 3000; i++ {
		if k := fmt.Sprintf("g%05d", i); !g.Has(th, k) {
			t.Fatalf("Has(%s) = false", k)
		}
	}
}

// TestKeyedPreloadFill pins how many buckets the benchmark's keyed preload
// ends in: 20k counter keys (i%05d) and 20k max keys (m%05d) in the map and
// 20k keys (s%05d) in the set, written from 8 lanes in a seeded shuffle,
// each table doubling on ErrFull as slserve grows it. With two candidate
// buckets per key the map fits in 8,192 buckets of 8 slots and the set in
// 2,048 of 16; one candidate per key takes 32,768 and 4,096. Outside -race
// it also pins the two tables' live heap after GC at 14.5 MB: 13.45 MB
// with 48 B entries and one shadow bit per set lane, 16.7 MB with 64 B
// entries and a 64 B shadow per set key.
func TestKeyedPreloadFill(t *testing.T) {
	const lanes, perFamily, maxMapBuckets, maxSetBuckets = 8, 20_000, 8192, 2048
	const maxHeapMB = 14.5
	type write struct {
		fam byte
		i   int
	}
	var ops []write
	for _, fam := range []byte{'i', 'm', 's'} {
		for i := 0; i < perFamily; i++ {
			ops = append(ops, write{fam, i})
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := prim.NewRealWorld()
	m := NewMonotoneMap(w, "fm", lanes)
	g := NewGSet(w, "fg", lanes)
	grow := func(th prim.Thread, write func() error, e *engine) {
		err := write()
		for errors.Is(err, ErrFull) {
			if gerr := e.Rehash(th, 2*e.Buckets(th)); gerr != nil {
				t.Fatalf("Rehash(%d): %v", 2*e.Buckets(th), gerr)
			}
			err = write()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for n, op := range ops {
		th := prim.RealThread(n % lanes)
		k := fmt.Sprintf("%c%05d", op.fam, op.i)
		switch op.fam {
		case 'i':
			grow(th, func() error { return m.Inc(th, k) }, &m.engine)
		case 'm':
			grow(th, func() error { return m.Max(th, k, 0) }, &m.engine)
		case 's':
			grow(th, func() error { return g.Add(th, k) }, &g.engine)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ops)
	heapMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
	th := prim.RealThread(0)
	ms, gs := m.Stats(th), g.Stats(th)
	t.Logf("map: %d keys in %d buckets x %d slots (%.0f%% full); set: %d keys in %d buckets x %d slots (%.0f%% full); live heap %.2f MB",
		ms.Keys, ms.Buckets, ms.Slots, 100*float64(ms.Keys)/float64(ms.Buckets*ms.Slots),
		gs.Keys, gs.Buckets, gs.Slots, 100*float64(gs.Keys)/float64(gs.Buckets*gs.Slots), heapMB)
	if heapMB > maxHeapMB && !raceEnabled {
		t.Errorf("preload's live heap is %.2f MB, want <= %g", heapMB, maxHeapMB)
	}
	if ms.Keys != 2*perFamily || gs.Keys != perFamily {
		t.Fatalf("keys = %d map, %d set; want %d, %d", ms.Keys, gs.Keys, 2*perFamily, perFamily)
	}
	if ms.Buckets > maxMapBuckets {
		t.Errorf("map preload ended in %d buckets, want <= %d", ms.Buckets, maxMapBuckets)
	}
	if gs.Buckets > maxSetBuckets {
		t.Errorf("set preload ended in %d buckets, want <= %d", gs.Buckets, maxSetBuckets)
	}
}

// --- Allocation discipline ---------------------------------------------------

// TestKeyedPackedPathZeroAllocs pins the acceptance bar: on packed
// (one-word-bucket) shapes, steady-state Add/Has and Inc/Max/Get perform
// zero heap allocations per op.
func TestKeyedPackedPathZeroAllocs(t *testing.T) {
	w := prim.NewRealWorld()
	g := NewGSet(w, "zg", 4, WithBuckets(4), WithSlots(8))                       // 4x8 bits: 1 word
	m := NewMonotoneMap(w, "zm", 2, WithBuckets(4), WithSlots(2), WithWidth(12)) // 4x12 bits: 1 word
	checkZeroAllocs(t, g, m, true)
}

// TestKeyedMultiWordPathZeroAllocs extends the bar to the shapes slserve
// runs: 8 lanes at the default slots and width, where a gset bucket is 3
// words and a map bucket 64, every register reached through its block.
func TestKeyedMultiWordPathZeroAllocs(t *testing.T) {
	w := prim.NewRealWorld()
	checkZeroAllocs(t, NewGSet(w, "zg", 8), NewMonotoneMap(w, "zm", 8), false)
}

func checkZeroAllocs(t *testing.T, g *GSet, m *MonotoneMap, packed bool) {
	t.Helper()
	th := prim.RealThread(1)
	if g.Stats(th).Packed != packed || m.Stats(th).Packed != packed {
		t.Fatalf("test shapes: packed = %v, %v; want %v", g.Stats(th).Packed, m.Stats(th).Packed, packed)
	}
	if err := g.Add(th, "hot"); err != nil {
		t.Fatal(err)
	}
	if err := m.Inc(th, "hits"); err != nil {
		t.Fatal(err)
	}
	if err := m.Max(th, "peak", 1); err != nil {
		t.Fatal(err)
	}
	var v int64 = 1
	checks := []struct {
		name string
		fn   func()
	}{
		{"gset-add", func() { _ = g.Add(th, "hot") }},
		{"gset-has", func() { _ = g.Has(th, "hot") }},
		{"gset-miss", func() { _ = g.Has(th, "cold") }},
		{"map-inc", func() { _ = m.Inc(th, "hits") }},
		{"map-max", func() { v++; _ = m.Max(th, "peak", v) }},
		{"map-get", func() { _, _ = m.Get(th, "hits") }},
		{"map-getkind", func() { _, _, _ = m.GetKind(th, "peak") }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
	}
}
