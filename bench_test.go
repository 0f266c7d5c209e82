package stronglin

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"stronglin/internal/baseline"
	"stronglin/internal/cluster"
	"stronglin/internal/core"
	"stronglin/internal/history"
	"stronglin/internal/keyed"
	"stronglin/internal/obs"
	"stronglin/internal/pool"
	"stronglin/internal/prim"
	"stronglin/internal/shard"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// The benchmarks time the paper's constructions against their linearizable
// and universal-primitive comparators; the E-* tags name the experiment
// families the README's "Benchmarks & experiments" section describes.
// Parallel benchmarks run exactly benchProcs workers with EXCLUSIVE process
// identities: the single-writer constructions (per-process lanes, snapshot
// components) require that at most one goroutine acts as process i.

const benchProcs = 8

func parallelWithIDs(b *testing.B, fn func(t prim.Thread, i int)) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N / benchProcs
	for p := 0; p < benchProcs; p++ {
		n := per
		if p == 0 {
			n += b.N % benchProcs
		}
		wg.Add(1)
		go func(p, n int) {
			defer wg.Done()
			th := prim.RealThread(p)
			for i := 0; i < n; i++ {
				fn(th, i)
			}
		}(p, n)
	}
	wg.Wait()
}

// E-PERF row 1: max registers.
func BenchmarkMaxRegister(b *testing.B) {
	b.Run("fa-thm1", func(b *testing.B) {
		m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", benchProcs)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%4 == 0 {
				m.WriteMax(t, int64(i%256))
			} else {
				m.ReadMax(t)
			}
		})
	})
	b.Run("aac-registers", func(b *testing.B) {
		m := baseline.NewAACMaxRegister(prim.NewRealWorld(), "m", 8)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%4 == 0 {
				m.WriteMax(t, int64(i%256))
			} else {
				m.ReadMax(t)
			}
		})
	})
	b.Run("atomic-maxreg", func(b *testing.B) {
		m := prim.NewRealWorld().MaxReg("m", 0)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%4 == 0 {
				m.WriteMax(t, int64(i%256))
			} else {
				m.ReadMax(t)
			}
		})
	})
}

// E-PERF row 2: snapshots.
func BenchmarkSnapshot(b *testing.B) {
	b.Run("fa-thm2", func(b *testing.B) {
		s := core.NewFASnapshot(prim.NewRealWorld(), "s", benchProcs)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%4 == 0 {
				s.Update(t, int64(i%64))
			} else {
				s.Scan(t)
			}
		})
	})
	b.Run("afek-registers", func(b *testing.B) {
		s := baseline.NewAfekSnapshot(prim.NewRealWorld(), "s", benchProcs)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%4 == 0 {
				s.Update(t, int64(i%64))
			} else {
				s.Scan(t)
			}
		})
	})
}

// E-PERF row 3: simple types over the fetch&add snapshot.
func BenchmarkSimpleCounter(b *testing.B) {
	c := core.NewCounterFromFA(prim.NewRealWorld(), "c", benchProcs)
	parallelWithIDs(b, func(t prim.Thread, i int) {
		if i%4 == 0 {
			c.Inc(t)
		} else {
			c.Read(t)
		}
	})
}

// E-PERF row 4: readable test&set (one-shot, so bench read-heavy).
func BenchmarkReadableTAS(b *testing.B) {
	r := core.NewReadableTAS(prim.NewRealWorld(), "r")
	parallelWithIDs(b, func(t prim.Thread, i int) {
		if i == 0 {
			r.TestAndSet(t)
		} else {
			r.Read(t)
		}
	})
}

// E-PERF row 5: multi-shot test&set (Corollary 7 composition).
func BenchmarkMultiShotTAS(b *testing.B) {
	m := core.NewMultiShotTASFromPrimitives(prim.NewRealWorld(), "m", benchProcs)
	parallelWithIDs(b, func(t prim.Thread, i int) {
		switch i % 3 {
		case 0:
			m.TestAndSet(t)
		case 1:
			m.Read(t)
		default:
			m.Reset(t)
		}
	})
}

// E-PERF row 6: fetch&increment variants.
func BenchmarkFetchInc(b *testing.B) {
	b.Run("tas-thm9", func(b *testing.B) {
		f := core.NewFetchIncFromTAS(prim.NewRealWorld(), "f")
		parallelWithIDs(b, func(t prim.Thread, i int) { f.FetchIncrement(t) })
	})
	b.Run("fa-direct", func(b *testing.B) {
		f := core.NewFAFetchInc(prim.NewRealWorld(), "f")
		parallelWithIDs(b, func(t prim.Thread, i int) { f.FetchIncrement(t) })
	})
	b.Run("sync-atomic", func(b *testing.B) {
		var c atomic.Int64
		parallelWithIDs(b, func(t prim.Thread, i int) { c.Add(1) })
	})
}

// E-PERF row 7: sets.
func BenchmarkSet(b *testing.B) {
	b.Run("tas-thm10", func(b *testing.B) {
		s := core.NewTASSetAtomic(prim.NewRealWorld(), "s")
		var next atomic.Int64
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%2 == 0 {
				s.Put(t, next.Add(1))
			} else {
				s.Take(t)
			}
		})
	})
	b.Run("mutex-map", func(b *testing.B) {
		var mu sync.Mutex
		m := make(map[int64]struct{})
		var next int64
		parallelWithIDs(b, func(t prim.Thread, i int) {
			mu.Lock()
			if i%2 == 0 {
				next++
				m[next] = struct{}{}
			} else {
				for k := range m {
					delete(m, k)
					break
				}
			}
			mu.Unlock()
		})
	})
}

// E-PERF row 8: queues (the impossibility-side objects).
func BenchmarkQueue(b *testing.B) {
	b.Run("herlihy-wing-lin", func(b *testing.B) {
		q := baseline.NewHWQueueLazy(prim.NewRealWorld(), "q", 1<<24)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%2 == 0 {
				q.Enqueue(t, int64(i+1))
			} else {
				q.DequeueBounded(t)
			}
		})
	})
	b.Run("cas-universal-sl", func(b *testing.B) {
		q := baseline.NewCASQueue(prim.NewRealWorld(), "q", benchProcs)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%2 == 0 {
				q.Enqueue(t, int64(i+1))
			} else {
				q.Dequeue(t)
			}
		})
	})
	b.Run("naive-stack-lin", func(b *testing.B) {
		s := baseline.NewNaiveStackLazy(prim.NewRealWorld(), "st", 1<<24)
		parallelWithIDs(b, func(t prim.Thread, i int) {
			if i%2 == 0 {
				s.Push(t, int64(i+1))
			} else {
				s.PopBounded(t)
			}
		})
	})
}

// E-SHARD: write throughput of the sharded monotone objects against their
// single-register baselines, at 1-8 shards with 8 parallel writers. The
// unsharded rows funnel every writer through one mutex-guarded wide register;
// the sharded rows split writers across S registers plus one narrow epoch
// XADD, which is where the scaling comes from.
func BenchmarkShardedCounter(b *testing.B) {
	b.Run("unsharded-fa", func(b *testing.B) {
		c := core.NewFACounter(prim.NewRealWorld(), "c")
		parallelWithIDs(b, func(t prim.Thread, i int) { c.Inc(t) })
	})
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			c := shard.NewCounter(prim.NewRealWorld(), "c", benchProcs, s)
			parallelWithIDs(b, func(t prim.Thread, i int) { c.Inc(t) })
		})
	}
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d-packed", s), func(b *testing.B) {
			c := shard.NewCounter(prim.NewRealWorld(), "c", benchProcs, s, shard.WithBound(1<<40))
			parallelWithIDs(b, func(t prim.Thread, i int) { c.Inc(t) })
		})
	}
	// The shards=4-packed row wrapped in the ownership-routing discipline
	// (internal/cluster): every inc also pays Table.Route's record read,
	// drain-slot occupy/release and record re-validation. The gap to that
	// row is the routing tier's per-request protocol cost with no network
	// in the way.
	b.Run("shards=4-packed-routed", func(b *testing.B) {
		w := prim.NewRealWorld()
		c := shard.NewCounter(w, "c", benchProcs, 4, shard.WithBound(1<<40))
		tb := cluster.NewTable(w, "route", benchProcs, 0, "counter")
		noop := func() {}
		parallelWithIDs(b, func(t prim.Thread, i int) {
			inc := func(int, int64) error { c.Inc(t); return nil }
			if err := tb.Route(t, t.ID(), "counter", inc, noop, noop); err != nil {
				b.Error(err) // a worker goroutine may not call Fatal
			}
		})
	})
}

func BenchmarkShardedMaxRegister(b *testing.B) {
	b.Run("unsharded-thm1", func(b *testing.B) {
		m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", benchProcs)
		parallelWithIDs(b, func(t prim.Thread, i int) { m.WriteMax(t, int64(i%512)) })
	})
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			m := shard.NewMaxRegister(prim.NewRealWorld(), "m", benchProcs, s)
			parallelWithIDs(b, func(t prim.Thread, i int) { m.WriteMax(t, int64(i%512)) })
		})
	}
}

// E-SHARD read path: epoch-validated combining reads against a write-heavy
// background (3 writes : 1 read, as in the E-PERF rows).
func BenchmarkShardedCounterMixed(b *testing.B) {
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			c := shard.NewCounter(prim.NewRealWorld(), "c", benchProcs, s)
			parallelWithIDs(b, func(t prim.Thread, i int) {
				if i%4 == 0 {
					c.Read(t)
				} else {
					c.Inc(t)
				}
			})
		})
	}
}

// E-PACK: the packed machine-word cores against the wide registers on the
// same configuration (same lanes, same value domain). The packed rows must
// run at 0 allocs/op: one hardware XADD, no mutex, no big.Int arithmetic.
// The wide write rows mix raising writes with no-op writes (the register is
// monotone, so raises are finitely many per run); the read rows are where the
// wide register pays its full decode cost per op.
func BenchmarkPackedCounter(b *testing.B) {
	th := prim.RealThread(0)
	b.Run("packed-inc", func(b *testing.B) {
		c := core.NewFACounter(prim.NewRealWorld(), "c", core.WithCounterBound(1<<40))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc(th)
		}
	})
	b.Run("wide-inc", func(b *testing.B) {
		c := core.NewFACounter(prim.NewRealWorld(), "c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc(th)
		}
	})
	b.Run("packed-read", func(b *testing.B) {
		c := core.NewFACounter(prim.NewRealWorld(), "c", core.WithCounterBound(1<<40))
		c.Add(th, 123456)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Read(th)
		}
	})
	b.Run("wide-read", func(b *testing.B) {
		c := core.NewFACounter(prim.NewRealWorld(), "c")
		c.Add(th, 123456)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Read(th)
		}
	})
}

func BenchmarkPackedMaxRegister(b *testing.B) {
	const lanes, bound = 2, 30 // 2 x 31 = 62 bits: packs
	th := prim.RealThread(0)
	b.Run("packed-write", func(b *testing.B) {
		m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", lanes, core.WithMaxRegBound(bound))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.WriteMax(th, int64(i)%(bound+1))
		}
	})
	b.Run("wide-write", func(b *testing.B) {
		m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", lanes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.WriteMax(th, int64(i)%(bound+1))
		}
	})
	b.Run("packed-read", func(b *testing.B) {
		m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", lanes, core.WithMaxRegBound(bound))
		m.WriteMax(th, bound)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ReadMax(th)
		}
	})
	b.Run("wide-read", func(b *testing.B) {
		m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", lanes)
		m.WriteMax(th, bound)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ReadMax(th)
		}
	})
}

func BenchmarkPackedGSet(b *testing.B) {
	const lanes, bound = 2, 30
	th := prim.RealThread(0)
	b.Run("packed-add", func(b *testing.B) {
		s := core.NewFAGSet(prim.NewRealWorld(), "s", lanes, core.WithGSetBound(bound))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Add(th, int64(i)%(bound+1))
		}
	})
	b.Run("wide-add", func(b *testing.B) {
		s := core.NewFAGSet(prim.NewRealWorld(), "s", lanes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Add(th, int64(i)%(bound+1))
		}
	})
	// The grow-only set saturates its bounded domain, so the loops above
	// measure the steady state (once-guard hit, fetch&add(0)). The fresh
	// variants rebuild the set each time the domain fills, timing only the
	// adds — every timed Add performs a genuine register update.
	b.Run("packed-add-fresh", func(b *testing.B) {
		var s *core.FAGSet
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(bound+1) == 0 {
				b.StopTimer()
				s = core.NewFAGSet(prim.NewRealWorld(), "s", lanes, core.WithGSetBound(bound))
				b.StartTimer()
			}
			s.Add(th, int64(i)%(bound+1))
		}
	})
	b.Run("wide-add-fresh", func(b *testing.B) {
		var s *core.FAGSet
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(bound+1) == 0 {
				b.StopTimer()
				s = core.NewFAGSet(prim.NewRealWorld(), "s", lanes)
				b.StartTimer()
			}
			s.Add(th, int64(i)%(bound+1))
		}
	})
	b.Run("packed-has", func(b *testing.B) {
		s := core.NewFAGSet(prim.NewRealWorld(), "s", lanes, core.WithGSetBound(bound))
		s.Add(th, 7)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Has(th, int64(i)%(bound+1))
		}
	})
	b.Run("wide-has", func(b *testing.B) {
		s := core.NewFAGSet(prim.NewRealWorld(), "s", lanes)
		s.Add(th, 7)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Has(th, int64(i)%(bound+1))
		}
	})
}

// E-KEYED: the hashed string-domain objects on their packed fast path. With
// lanes=2 and 8 slots a KeyedGSet bucket is 16 payload bits — one word — so
// Add is a directory lookup plus one XADD and Has an epoch-validated
// single-word collect; both must run at 0 allocs/op. The multiword rows keep
// the wider default bucket honest: same ops, more words per collect. The
// resident rows run the default 8-lane set with 20k keys in it (the keyed
// benchmark workload's s%05d family), so Has scans full directories: of
// present keys, and of 20k keys never added (a%05d).
func BenchmarkKeyedGSet(b *testing.B) {
	th := prim.RealThread(0)
	keys := benchKeyUniverse(16)
	mk := func(opts ...keyed.Option) *keyed.GSet {
		return mkKeyedGSet(b, th, keys, opts...)
	}
	b.Run("packed-add", func(b *testing.B) {
		g := mk(keyed.WithSlots(8)) // 2 lanes x 8 slots = 16 bits: one word
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Add(th, keys[i&15])
		}
	})
	b.Run("packed-add-fresh", func(b *testing.B) {
		// The steady-state loop above hits the once-guard (the key set
		// saturates). Here every key is pre-claimed from the OTHER lane
		// during the off-clock rebuild, so each timed lane-0 add performs a
		// genuine membership XADD against an existing directory entry —
		// the first-writer claim's map insert stays off the clock.
		th1 := prim.RealThread(1)
		var g *keyed.GSet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i&15 == 0 {
				b.StopTimer()
				g = mkKeyedGSet(b, th1, keys, keyed.WithSlots(8))
				b.StartTimer()
			}
			if err := g.Add(th, keys[i&15]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed-has", func(b *testing.B) {
		g := mk(keyed.WithSlots(8))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Has(th, keys[i&15])
		}
	})
	b.Run("multiword-has", func(b *testing.B) {
		g := mk(keyed.WithSlots(48)) // 48-bit fields: one lane per word, 2 words
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Has(th, keys[i&15])
		}
	})
	var resident *keyed.GSet
	residentHas := func(b *testing.B, keys []string, want bool) {
		if resident == nil {
			resident = keyed.NewGSet(prim.NewRealWorld(), "kg", residentLanes)
			for i, k := range residentKeys("s") {
				growFull(b, func() error { return resident.Add(prim.RealThread(i%residentLanes), k) },
					func() error { return resident.Rehash(th, 2*resident.Buckets(th)) })
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resident.Has(th, keys[i%len(keys)]) != want {
				b.Fatalf("Has(%s) = %v", keys[i%len(keys)], !want)
			}
		}
	}
	b.Run("resident-has", func(b *testing.B) { residentHas(b, shuffledKeys("s"), true) })
	b.Run("resident-has-absent", func(b *testing.B) { residentHas(b, shuffledKeys("a"), false) })
}

// E-KEYED: the monotone map's packed shape — slots=1, lanes=2, width=24
// packs the bucket's two fields into one word, so IncBy is shadow-read plus
// one in-field XADD and Get a single-word validated collect, 0 allocs/op.
// The multiword rows run the default bucket (8 slots x 32 bits: one field
// per word) for contrast. resident-get reads, in a shuffled order, the
// default 8-lane map holding the keyed benchmark workload's 40k keys: 20k
// counters (i%05d) and 20k max registers (m%05d).
func BenchmarkKeyedMap(b *testing.B) {
	const lanes = 2
	th := prim.RealThread(0)
	keys := benchKeyUniverse(8)
	mk := func(opts ...keyed.Option) *keyed.MonotoneMap {
		m := keyed.NewMonotoneMap(prim.NewRealWorld(), "km", lanes, opts...)
		for _, k := range keys {
			growFull(b, func() error { return m.IncBy(th, k, 1) },
				func() error { return m.Rehash(th, 2*m.Buckets(th)) })
		}
		return m
	}
	packed := []keyed.Option{keyed.WithSlots(1), keyed.WithWidth(24)}
	b.Run("packed-inc", func(b *testing.B) {
		m := mk(packed...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.IncBy(th, keys[i&7], 1) != nil {
				// 24-bit field budget exhausted: rebuild off the clock.
				b.StopTimer()
				m = mk(packed...)
				b.StartTimer()
			}
		}
	})
	b.Run("packed-get", func(b *testing.B) {
		m := mk(packed...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Get(th, keys[i&7]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multiword-inc", func(b *testing.B) {
		m := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.IncBy(th, keys[i&7], 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multiword-get", func(b *testing.B) {
		m := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Get(th, keys[i&7]); err != nil {
				b.Fatal(err)
			}
		}
	})
	var resident *keyed.MonotoneMap
	b.Run("resident-get", func(b *testing.B) {
		if resident == nil {
			resident = keyed.NewMonotoneMap(prim.NewRealWorld(), "km", residentLanes)
			grow := func() error { return resident.Rehash(th, 2*resident.Buckets(th)) }
			for i, k := range residentKeys("i") {
				growFull(b, func() error { return resident.Inc(prim.RealThread(i%residentLanes), k) }, grow)
			}
			for i, k := range residentKeys("m") {
				growFull(b, func() error { return resident.Max(prim.RealThread(i%residentLanes), k, 0) }, grow)
			}
		}
		keys := append(shuffledKeys("i"), shuffledKeys("m")...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := resident.Get(th, keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// residentLanes and residentKeys are the keyed benchmark workload's shape:
// an 8-lane server and 20k keys per family, named prefix%05d.
const residentLanes = 8

func residentKeys(prefix string) []string {
	keys := make([]string, 20_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	return keys
}

// shuffledKeys is residentKeys in a fixed random order, so a read loop over
// it touches buckets in no pattern.
func shuffledKeys(prefix string) []string {
	keys := residentKeys(prefix)
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// growFull runs write, doubling the table through grow on ErrFull (slserve's
// growth rule).
func growFull(b *testing.B, write, grow func() error) {
	err := write()
	for err == keyed.ErrFull {
		if gerr := grow(); gerr != nil {
			b.Fatal(gerr)
		}
		err = write()
	}
	if err != nil {
		b.Fatal(err)
	}
}

// E-KEYED: one empty rehash, 4096 -> 8192 buckets at 8 lanes and default
// shapes (map: 64 words + 8 bound flags per bucket; gset: 3 words). A
// bucket generation is one flat block per field and a directory is made at
// its bucket's first key, so allocs/op is a handful per rehash, not one or
// more per new bucket. Run with -benchmem.
func BenchmarkKeyedRehash(b *testing.B) {
	const lanes, from, to = 8, 4096, 8192
	th := prim.RealThread(0)
	run := func(b *testing.B, build func() func() error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rehash := build()
			b.StartTimer()
			if err := rehash(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("map", func(b *testing.B) {
		run(b, func() func() error {
			m := keyed.NewMonotoneMap(prim.NewRealWorld(), "km", lanes, keyed.WithBuckets(from))
			return func() error { return m.Rehash(th, to) }
		})
	})
	b.Run("gset", func(b *testing.B) {
		run(b, func() func() error {
			g := keyed.NewGSet(prim.NewRealWorld(), "kg", lanes, keyed.WithBuckets(from))
			return func() error { return g.Rehash(th, to) }
		})
	})
}

func benchKeyUniverse(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// mkKeyedGSet builds a 2-lane keyed set with every key already added by th,
// growing past hash-collision ErrFull so cramped shapes cannot wedge setup.
func mkKeyedGSet(b *testing.B, th prim.Thread, keys []string, opts ...keyed.Option) *keyed.GSet {
	b.Helper()
	g := keyed.NewGSet(prim.NewRealWorld(), "kg", 2, opts...)
	for _, k := range keys {
		growFull(b, func() error { return g.Add(th, k) },
			func() error { return g.Rehash(th, 2*g.Buckets(th)) })
	}
	return g
}

// E-SNAP: the packed machine-word snapshot (Theorem 2 on binary fields over
// one XADD register) against the wide big.Int register at the same lane count
// and value domain. The packed rows must run at 0 allocs/op: Update is one
// XADD of a signed in-lane field delta, Scan (via ScanInto) one XADD(0) plus
// shift-and-mask. Update values cycle, so every wide update pays the full
// posAdj-negAdj big.Int delta — the cost the packed engine deletes.
func BenchmarkPackedSnapshot(b *testing.B) {
	const lanes, bound = 4, 1<<15 - 1 // 4 x 15 = 60 bits: packs
	th := prim.RealThread(0)
	b.Run("packed-update", func(b *testing.B) {
		s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, core.WithSnapshotBound(bound))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Update(th, int64(i)&bound)
		}
	})
	b.Run("wide-update", func(b *testing.B) {
		s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Update(th, int64(i)&bound)
		}
	})
	b.Run("packed-scan", func(b *testing.B) {
		s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, core.WithSnapshotBound(bound))
		s.Update(th, bound)
		view := make([]int64, lanes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ScanInto(th, view)
		}
	})
	b.Run("wide-scan", func(b *testing.B) {
		s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes)
		s.Update(th, bound)
		view := make([]int64, lanes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ScanInto(th, view)
		}
	})
}

// E-SNAP multi-word: the k-XADD snapshot engine past the 63-bit ceiling
// (n x bitWidth(maxValue) > 63, where PR 3's single packed word had to fall
// back to the wide big.Int register) against that wide register at the same
// lane count and value domain. Update is a payload+sequence XADD on the
// owning word plus at most one announce on word 0; ScanInto is the
// double-collect k-word gather with its closing announce check. Both must
// run at 0 allocs/op and ≥5x faster than wide at n=8 (the measured gap is
// ~10-40x; see README).
func BenchmarkMultiwordSnapshot(b *testing.B) {
	for _, lanes := range []int{8, 16} {
		// 15-bit fields: 3 lanes/word -> 3 words at n=8, 6 words at n=16.
		const bound = 1<<15 - 1
		th := prim.RealThread(0)
		name := func(op string) string { return fmt.Sprintf("%s/n=%d", op, lanes) }
		b.Run(name("multiword-update"), func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, core.WithSnapshotBound(bound))
			if !s.Multiword() {
				b.Fatal("bench config must stripe")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Update(th, int64(i)&bound)
			}
		})
		b.Run(name("wide-update"), func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Update(th, int64(i)&bound)
			}
		})
		b.Run(name("multiword-scan"), func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, core.WithSnapshotBound(bound))
			s.Update(th, bound)
			view := make([]int64, lanes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ScanInto(th, view)
			}
		})
		b.Run(name("wide-scan"), func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes)
			s.Update(th, bound)
			view := make([]int64, lanes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ScanInto(th, view)
			}
		})
	}
}

// E-SHARD wide read at slserve's default shape: 8 lanes over 4 unbounded
// shards, every lane raised to just below 1024, so each shard core holds a
// ~2048-bit unary word. Every iteration makes a no-op WriteMax (one
// fetch&add(0) plus the epoch announce) and then reads: the validated
// collect over the four wide words.
func BenchmarkShardedMaxRegisterRead(b *testing.B) {
	const lanes, shards = 8, 4
	th := prim.RealThread(0)
	m := shard.NewMaxRegister(prim.NewRealWorld(), "m", lanes, shards)
	for l := 0; l < lanes; l++ {
		m.WriteMax(prim.RealThread(l), 1023-int64(l))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteMax(th, 0)
		m.ReadMax(th)
	}
}

// E-SNAP multi-word under contention: the validated double-collect scan
// with a concurrent updater continuously landing XADDs and announces — the
// retry path and (since PR 5) the helping machinery are what this measures
// (single-threaded scans never retry). The default-budget row is the
// shipped configuration; the budget0 row forces every failed round straight
// into the pressure-raise/adopt path, pricing the helping worst case. Both
// must stay 0 allocs/op on the scanner side (the only allocation in the
// machinery is the HELPER's deposit, on the updater).
func BenchmarkMultiwordSnapshotContendedScan(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		budget int
	}{{"default-budget", -1}, {"budget0-adopt", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			const lanes, bound = 8, 1<<15 - 1
			opts := []core.SnapshotOption{core.WithSnapshotBound(bound)}
			if cfg.budget >= 0 {
				opts = append(opts, core.WithScanRetryBudget(cfg.budget))
			}
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, opts...)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := prim.RealThread(1)
				for v := int64(0); ; v++ {
					select {
					case <-stop:
						return
					default:
					}
					s.Update(th, v&bound)
					runtime.Gosched()
				}
			}()
			th := prim.RealThread(0)
			view := make([]int64, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScanInto(th, view)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			hs := s.HelpStats()
			b.ReportMetric(float64(hs.Deposits), "deposits")
			b.ReportMetric(float64(hs.Adopts), "adopts")
			b.ReportMetric(float64(hs.Retries), "retries")
		})
	}
}

// PR 6 acceptance pair: the same hot paths with and without the telemetry
// registry attached. The always-on help/retry counters batch on slow paths
// only, and the retry-round histogram observes contended completions only,
// so obs-on must stay 0 allocs/op and within 5% of obs-off on every row —
// the criterion that keeps /metrics free on the fast path. The contended
// rows price the histogram's Observe on the retry path itself (the only
// place it runs); the uncontended rows prove attaching obs adds nothing.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const lanes, bound = 8, 1<<15 - 1
	mkOpts := func(on bool, budget int) []core.SnapshotOption {
		opts := []core.SnapshotOption{core.WithSnapshotBound(bound)}
		if budget >= 0 {
			opts = append(opts, core.WithScanRetryBudget(budget))
		}
		if on {
			opts = append(opts, core.WithSnapshotObs(obs.SnapMetrics{
				ScanRounds: obs.NewRegistry().Histogram("bench_scan_rounds", "bench"),
			}))
		}
		return opts
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"obs-off", false}, {"obs-on", true}} {
		b.Run("multiword-update/"+mode.name, func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, mkOpts(mode.on, -1)...)
			th := prim.RealThread(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Update(th, int64(i)&bound)
			}
		})
		b.Run("multiword-scan/"+mode.name, func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, mkOpts(mode.on, -1)...)
			th := prim.RealThread(0)
			s.Update(th, bound)
			view := make([]int64, lanes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ScanInto(th, view)
			}
		})
		b.Run("contended-scan-budget0/"+mode.name, func(b *testing.B) {
			s := core.NewFASnapshot(prim.NewRealWorld(), "s", lanes, mkOpts(mode.on, 0)...)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := prim.RealThread(1)
				for v := int64(0); ; v++ {
					select {
					case <-stop:
						return
					default:
					}
					s.Update(th, v&bound)
					runtime.Gosched()
				}
			}()
			th := prim.RealThread(0)
			view := make([]int64, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScanInto(th, view)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(s.HelpStats().Retries), "retries")
		})
	}
}

// E-SNAP simple-object op: one Algorithm 1 operation (logical-clock tick)
// over the packed vs the wide snapshot. The snapshot step is one of many in
// Execute (graph collect + linearize dominate as history grows), so the gap
// is smaller than the raw-snapshot rows — the packed win here is that the
// SHARED state is one machine word. 2 lanes x 31-bit fields give a ~2^31 op
// budget, far beyond any b.N.
func BenchmarkSimpleObjectOp(b *testing.B) {
	const lanes, refBound = 2, int64(1)<<31 - 1 // 2 x 31 = 62 bits: packs
	th := prim.RealThread(0)
	b.Run("packed-clock-tick", func(b *testing.B) {
		c := core.NewLogicalClockFromFA(prim.NewRealWorld(), "c", lanes, core.WithSnapshotBound(refBound))
		if !c.Packed() {
			b.Fatal("bench config must pack")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Tick(th)
		}
	})
	b.Run("wide-clock-tick", func(b *testing.B) {
		c := core.NewLogicalClockFromFA(prim.NewRealWorld(), "c", lanes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Tick(th)
		}
	})
}

// E-PACK contended read: fetch&add(0) on the wide register is a single atomic
// pointer load under the copy-on-write implementation — it must stay 0
// allocs/op and mutex-free while a writer keeps publishing. (Before COW this
// benchmark serialised on the register mutex and copied the word per read.)
func BenchmarkWideFetchAddContendedRead(b *testing.B) {
	w := prim.NewRealWorld()
	r := w.FetchAdd("R")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := prim.RealThread(1)
		delta := big.NewInt(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.FetchAdd(th, delta)
			runtime.Gosched()
		}
	}()
	th := prim.RealThread(0)
	zeroDelta := new(big.Int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FetchAdd(th, zeroDelta)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// E-POOL: lane lease overhead — the cost of routing an operation through
// Acquire/Release instead of a dedicated process identity.
func BenchmarkPoolWith(b *testing.B) {
	w := prim.NewRealWorld()
	p := pool.New(w, "p", benchProcs)
	c := shard.NewCounter(w, "c", benchProcs, 4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.With(func(t prim.RealThread) { c.Inc(t) })
		}
	})
}

// E-WIDTH: register width growth of the fetch&add constructions (the
// Section 6 cost). Reports bits per written value magnitude.
func BenchmarkRegisterWidth(b *testing.B) {
	for _, maxVal := range []int64{16, 256, 4096} {
		b.Run(fmt.Sprintf("maxreg-unary/val=%d", maxVal), func(b *testing.B) {
			w := sim.NewSoloWorld()
			m := core.NewFAMaxRegister(w, "m", benchProcs)
			th := sim.SoloThread(0)
			for i := 0; i < b.N; i++ {
				m.WriteMax(th, int64(i)%maxVal)
			}
			b.ReportMetric(float64(m.Width(th)), "bits")
		})
		b.Run(fmt.Sprintf("snapshot-binary/val=%d", maxVal), func(b *testing.B) {
			w := sim.NewSoloWorld()
			s := core.NewFASnapshot(w, "s", benchProcs)
			th := sim.SoloThread(0)
			for i := 0; i < b.N; i++ {
				s.Update(th, int64(i)%maxVal)
			}
			b.ReportMetric(float64(s.Width(th)), "bits")
		})
	}
}

// E-CHECK: throughput of the verification machinery itself.
func BenchmarkCheckers(b *testing.B) {
	b.Run("explore+stronglin", func(b *testing.B) {
		setup := func(w *sim.World) []sim.Program {
			m := core.NewFAMaxRegister(w, "m", 2)
			wm := sim.Op{Name: "w", Spec: spec.MkOp(spec.MethodWriteMax, 1),
				Run: func(t prim.Thread) string { m.WriteMax(t, 1); return spec.RespOK }}
			rm := sim.Op{Name: "r", Spec: spec.MkOp(spec.MethodReadMax),
				Run: func(t prim.Thread) string { return spec.RespInt(m.ReadMax(t)) }}
			return []sim.Program{{wm, rm}, {wm, rm}}
		}
		for i := 0; i < b.N; i++ {
			tree, err := sim.Explore(2, setup, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res := history.CheckStrongLin(tree, spec.MaxRegister{}, nil); !res.Ok {
				b.Fatal("unexpected refutation")
			}
		}
	})
	b.Run("wgl-linearizability", func(b *testing.B) {
		w := prim.NewRealWorld()
		m := core.NewFAMaxRegister(w, "m", 4)
		rngs := make([]*rand.Rand, 4)
		for p := range rngs {
			rngs[p] = rand.New(rand.NewSource(int64(p) + 5))
		}
		h := history.Stress(history.StressConfig{
			Procs:      4,
			OpsPerProc: 50,
			Gen: func(p, i int) history.StressOp {
				if rngs[p].Intn(2) == 0 {
					v := int64(rngs[p].Intn(16))
					return history.StressOp{Op: spec.MkOp(spec.MethodWriteMax, v),
						Run: func(t prim.Thread) string { m.WriteMax(t, v); return spec.RespOK }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodReadMax),
					Run: func(t prim.Thread) string { return spec.RespInt(m.ReadMax(t)) }}
			},
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := history.CheckLinearizable(h, spec.MaxRegister{}); !res.Ok {
				b.Fatal("stress history rejected")
			}
		}
	})
}

// E-ADV as a benchmark: trials per second of the adversary game.
func BenchmarkAdversaryGame(b *testing.B) {
	b.Run("vs-strongly-linearizable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PlayAdversary(AdversaryVsStrong, 10, int64(i))
		}
	})
	b.Run("vs-linearizable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PlayAdversary(AdversaryVsLinearizable, 10, int64(i))
		}
	})
}
