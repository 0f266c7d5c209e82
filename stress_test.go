package stronglin_test

// TestStressLinearizable is the real-concurrency check of every engine:
// each row drives one construction from genuine goroutines, records the
// history, and checks it against the row's sequential spec with the WGL
// checker. Strong linearizability is model-checked exhaustively in the
// engines' own packages; this table covers what the model checks cannot
// reach (4 processes, long histories, the real scheduler). Each row's
// rounds run twice: in the real world, and in yieldWorld, which yields the
// processor between an operation's steps so that another worker's steps
// land inside it.

import (
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"stronglin/internal/baseline"
	"stronglin/internal/core"
	"stronglin/internal/history"
	"stronglin/internal/keyed"
	"stronglin/internal/prim"
	"stronglin/internal/shard"
	"stronglin/internal/spec"
)

// gen returns worker p's i-th operation.
type gen = func(p, i int) history.StressOp

// stressRow is one workload: build(w, procs, seed) makes a fresh object in
// w and the generator that drives it.
type stressRow struct {
	name       string
	sp         spec.Spec
	procs, ops int
	build      func(w prim.World, procs int, seed int64) gen
}

// stressSeed is the base seed: round r runs with stressSeed+r.
const stressSeed = 1

func TestStressLinearizable(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 3
	}
	worlds := []struct {
		name string
		make func() prim.World
	}{
		{"real", func() prim.World { return prim.NewRealWorld() }},
		{"yielding", func() prim.World { return yieldWorld{prim.NewRealWorld()} }},
	}
	for _, row := range stressRows() {
		t.Run(row.name, func(t *testing.T) {
			for _, w := range worlds {
				for r := 0; r < rounds; r++ {
					seed := int64(stressSeed + r)
					h := history.Stress(history.StressConfig{Procs: row.procs, OpsPerProc: row.ops, Gen: row.build(w.make(), row.procs, seed)})
					if res := history.CheckLinearizable(h, row.sp); !res.Ok {
						t.Fatalf("%s world, round %d (seed %d, %d procs x %d ops): not linearizable\n%s",
							w.name, r, seed, row.procs, row.ops, h.String())
					}
				}
			}
		})
	}
}

func stressRows() []stressRow {
	const wordBound = 1<<32 - 1 // one lane per word: every scan is a cross-word double collect
	return []stressRow{
		// --- max registers -----------------------------------------------
		{"maxreg", spec.MaxRegister{}, 4, 40, maxRegs(1.0/2, below(32), func(w prim.World, n int) maxReg {
			return core.NewFAMaxRegister(w, "m", n)
		})},
		{"packed-maxreg", spec.MaxRegister{}, 4, 40, maxRegs(1.0/2, below(15), func(w prim.World, n int) maxReg {
			m := core.NewFAMaxRegister(w, "m", n, core.WithMaxRegBound(14)) // 4 x 15 = 60 bits
			return shaped(m, m.Packed())
		})},
		// Read-heavy, with climbing values so that the max keeps moving: a
		// read that collects shard A before a larger write lands there and
		// shard B after a smaller, later write (the single-collect
		// counterexample) returns a value no linearization explains.
		{"sharded-maxreg", spec.MaxRegister{}, 4, 40, maxRegs(3.0/4, climbing(16), func(w prim.World, n int) maxReg {
			return shard.NewMaxRegister(w, "m", n, 2)
		})},
		{"sharded-packed-maxreg", spec.MaxRegister{}, 4, 30, maxRegs(1.0/2, below(15), func(w prim.World, n int) maxReg {
			m := shard.NewMaxRegister(w, "m", n, 2, shard.WithBound(14)) // 2 lanes/shard x 15 bits
			return shaped(m, m.Packed())
		})},
		{"aacmaxreg", spec.MaxRegister{}, 4, 40, maxRegs(1.0/2, below(64), func(w prim.World, _ int) maxReg {
			return baseline.NewAACMaxRegister(w, "m", 6)
		})},

		// --- monotone counters ---------------------------------------------
		{"packed-counter", spec.MonotonicCounter{}, 4, 40, counters(1.0/3, func(w prim.World, _ int) monotoneCounter {
			c := core.NewFACounter(w, "c", core.WithCounterBound(1<<30))
			return shaped(c, c.Packed())
		})},
		{"sharded-counter", spec.MonotonicCounter{}, 4, 40, counters(1.0/3, func(w prim.World, n int) monotoneCounter {
			return shard.NewCounter(w, "c", n, 2)
		})},
		{"sharded-packed-counter", spec.MonotonicCounter{}, 4, 40, counters(1.0/3, func(w prim.World, n int) monotoneCounter {
			c := shard.NewCounter(w, "c", n, 2, shard.WithBound(1<<30))
			return shaped(c, c.Packed())
		})},
		// The helped read with a zero retry budget: contended reads raise
		// pressure and adopt writer-deposited validated sums.
		{"sharded-help", spec.MonotonicCounter{}, 4, 40, counters(1.0/3, func(w prim.World, n int) monotoneCounter {
			return shard.NewCounter(w, "c", n, 2, shard.WithReadRetryBudget(0))
		})},

		// --- snapshots -------------------------------------------------------
		{"snapshot", spec.Snapshot{}, 4, 40, snapshots(1.0/2, 8, func(w prim.World, n int) snapshot {
			return core.NewFASnapshot(w, "s", n)
		})},
		{"packed-snapshot", spec.Snapshot{}, 4, 25, snapshots(1.0/2, 8, func(w prim.World, n int) snapshot {
			s := core.NewFASnapshot(w, "s", n, core.WithSnapshotBound(7)) // 4 x 3 = 12 bits
			return shaped(s, s.Packed())
		})},
		{"multiword", spec.Snapshot{}, 4, 40, snapshots(1.0/2, 1<<16, func(w prim.World, n int) snapshot {
			s := core.NewFASnapshot(w, "s", n, core.WithSnapshotBound(wordBound))
			return shaped(s, s.Multiword())
		})},
		// The adopt path under duress: a zero retry budget makes every
		// contended scan adopt an updater's deposited view, and the
		// update-heavy mix keeps deposits flowing.
		{"multiword-help", spec.Snapshot{}, 4, 40, snapshots(1.0/3, 1<<16, func(w prim.World, n int) snapshot {
			return core.NewFASnapshot(w, "s", n, core.WithSnapshotBound(wordBound), core.WithScanRetryBudget(0))
		})},
		{"afeksnapshot", spec.Snapshot{}, 4, 40, snapshots(1.0/2, 8, func(w prim.World, n int) snapshot {
			return baseline.NewAfekSnapshot(w, "s", n)
		})},

		// --- one-off types ---------------------------------------------------
		// Algorithm 1's counter at 4 x 12: its history check grows with k³.
		{"counter", spec.Counter{}, 4, 12, func(w prim.World, procs int, seed int64) gen {
			c := core.NewCounterFromFA(w, "c", procs)
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				switch rngs[p].Intn(3) {
				case 0:
					return history.StressOp{Op: spec.MkOp(spec.MethodInc),
						Run: func(t prim.Thread) string { c.Inc(t); return spec.RespOK }}
				case 1:
					return history.StressOp{Op: spec.MkOp(spec.MethodDec),
						Run: func(t prim.Thread) string { c.Dec(t); return spec.RespOK }}
				default:
					return history.StressOp{Op: spec.MkOp(spec.MethodRead),
						Run: func(t prim.Thread) string { return spec.RespInt(c.Read(t)) }}
				}
			}
		}},
		{"rtas", spec.ReadableTAS{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			r := core.NewReadableTAS(w, "r")
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				if rngs[p].Intn(4) == 0 {
					return history.StressOp{Op: spec.MkOp(spec.MethodTAS),
						Run: func(t prim.Thread) string { return spec.RespInt(r.TestAndSet(t)) }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodRead),
					Run: func(t prim.Thread) string { return spec.RespInt(r.Read(t)) }}
			}
		}},
		{"mstas", spec.MultiShotTAS{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			m := core.NewMultiShotTASFromPrimitives(w, "m", procs)
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				switch rngs[p].Intn(3) {
				case 0:
					return history.StressOp{Op: spec.MkOp(spec.MethodTAS),
						Run: func(t prim.Thread) string { return spec.RespInt(m.TestAndSet(t)) }}
				case 1:
					return history.StressOp{Op: spec.MkOp(spec.MethodReset),
						Run: func(t prim.Thread) string { m.Reset(t); return spec.RespOK }}
				default:
					return history.StressOp{Op: spec.MkOp(spec.MethodRead),
						Run: func(t prim.Thread) string { return spec.RespInt(m.Read(t)) }}
				}
			}
		}},
		{"fai", spec.FetchInc{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			f := core.NewFetchIncFromTAS(w, "f")
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				if rngs[p].Intn(3) == 0 {
					return history.StressOp{Op: spec.MkOp(spec.MethodRead),
						Run: func(t prim.Thread) string { return spec.RespInt(f.Read(t)) }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodFAI),
					Run: func(t prim.Thread) string { return spec.RespInt(f.FetchIncrement(t)) }}
			}
		}},
		{"set", spec.TakeSet{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			s := core.NewTASSetFromTAS(w, "s")
			rngs := procRNGs(procs, seed)
			next := uniqueItems(procs)
			return func(p, i int) history.StressOp {
				if rngs[p].Intn(2) == 0 {
					x := next(p)
					return history.StressOp{Op: spec.MkOp(spec.MethodPut, x),
						Run: func(t prim.Thread) string { return s.Put(t, x) }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodTake),
					Run: func(t prim.Thread) string { return s.Take(t) }}
			}
		}},
		{"sharded-gset", spec.GSet{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			g := shard.NewGSet(w, "g", procs, 2)
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				x := int64(rngs[p].Intn(8))
				if rngs[p].Intn(2) == 0 {
					return history.StressOp{Op: spec.MkOp(spec.MethodAdd, x),
						Run: func(t prim.Thread) string { g.Add(t, x); return spec.RespOK }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodHas, x),
					Run: func(t prim.Thread) string { return bit(g.Has(t, x)) }}
			}
		}},
		// Strict push/pop and enq/deq alternation with spinning removals, so
		// every removal has an item to find: a single-scan "empty" answer is
		// unsound (TestHWQueueBoundedEmptinessUnsound).
		{"naivestack", spec.Stack{}, 4, 40, func(w prim.World, procs int, _ int64) gen {
			s := baseline.NewNaiveStackLazy(w, "st", 1<<20)
			next := uniqueItems(procs)
			return func(p, i int) history.StressOp {
				if i%2 == 0 {
					v := next(p)
					return history.StressOp{Op: spec.MkOp(spec.MethodPush, v),
						Run: func(t prim.Thread) string { s.Push(t, v); return spec.RespOK }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodPop),
					Run: func(t prim.Thread) string {
						for {
							if v, ok := s.PopBounded(t); ok {
								return spec.RespInt(v)
							}
						}
					}}
			}
		}},
		{"hwqueue", spec.Queue{}, 4, 40, func(w prim.World, procs int, _ int64) gen {
			q := baseline.NewHWQueueLazy(w, "q", 1<<20)
			next := uniqueItems(procs)
			return func(p, i int) history.StressOp {
				if i%2 == 0 {
					v := next(p)
					return history.StressOp{Op: spec.MkOp(spec.MethodEnq, v),
						Run: func(t prim.Thread) string { q.Enqueue(t, v); return spec.RespOK }}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodDeq),
					Run: func(t prim.Thread) string { return spec.RespInt(q.Dequeue(t)) }}
			}
		}},

		// --- keyed -----------------------------------------------------------
		// A tiny key universe in a cramped shape (2 buckets x 4 slots), so
		// keys collide in one bucket's packed words. A rare Rehash folds into
		// an add's span: it keeps the abstract set, so the spec never sees
		// it, but a flip that lost or resurrected a membership bit fails the
		// next has.
		{"kgset", spec.GSet{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			g := keyed.NewGSet(w, "kg", procs, keyed.WithBuckets(2), keyed.WithSlots(4))
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				k := int64(1 + rngs[p].Intn(6))
				key := "k" + strconv.FormatInt(k, 10)
				if rngs[p].Intn(2) == 0 {
					grow := rngs[p].Intn(16) == 0
					return history.StressOp{Op: spec.MkOp(spec.MethodAdd, k),
						Run: func(t prim.Thread) string {
							if grow {
								_ = g.Rehash(t, g.Buckets(t)*2)
							}
							if err := g.Add(t, key); err != nil {
								_ = g.Rehash(t, g.Buckets(t)*2)
								if err := g.Add(t, key); err != nil {
									panic(err)
								}
							}
							return spec.RespOK
						}}
				}
				return history.StressOp{Op: spec.MkOp(spec.MethodHas, k),
					Run: func(t prim.Thread) string { return bit(g.Has(t, key)) }}
			}
		}},
		// inc, max and get racing on a small key universe: the first write
		// binds a key's kind, the other kind's writes answer
		// RespKindMismatch, and a get of a never-written key answers
		// RespNone, which a stale or torn collect would betray. A rare
		// Rehash folds into a write's span, as in kgset: a migration that
		// lost a lane's field or a binding shows in the next get.
		{"keyedmap", spec.KeyedMap{}, 4, 40, func(w prim.World, procs int, seed int64) gen {
			m := keyed.NewMonotoneMap(w, "km", procs, keyed.WithBuckets(2), keyed.WithSlots(4))
			rngs := procRNGs(procs, seed)
			return func(p, i int) history.StressOp {
				k := int64(1 + rngs[p].Intn(4))
				key := "k" + strconv.FormatInt(k, 10)
				grow := rngs[p].Intn(16) == 0
				write := func(t prim.Thread, w func() error) string {
					if grow {
						_ = m.Rehash(t, m.Buckets(t)*2)
					}
					err := w()
					if errors.Is(err, keyed.ErrFull) {
						_ = m.Rehash(t, m.Buckets(t)*2)
						err = w()
					}
					return kmapWriteResp(err)
				}
				switch rngs[p].Intn(4) {
				case 0:
					d := int64(1 + rngs[p].Intn(3))
					return history.StressOp{Op: spec.MkOp(spec.MethodMapInc, k, d),
						Run: func(t prim.Thread) string { return write(t, func() error { return m.IncBy(t, key, d) }) }}
				case 1:
					v := int64(rngs[p].Intn(8))
					return history.StressOp{Op: spec.MkOp(spec.MethodMapMax, k, v),
						Run: func(t prim.Thread) string { return write(t, func() error { return m.Max(t, key, v) }) }}
				default:
					return history.StressOp{Op: spec.MkOp(spec.MethodMapGet, k),
						Run: func(t prim.Thread) string {
							v, err := m.Get(t, key)
							if errors.Is(err, keyed.ErrUnknownKey) {
								return spec.RespNone
							}
							if err != nil {
								panic(err)
							}
							return spec.RespInt(v)
						}}
				}
			}
		}},
	}
}

type maxReg interface {
	WriteMax(t prim.Thread, v int64)
	ReadMax(t prim.Thread) int64
}

// maxRegs drives a max register: a read share of reads, writes of val's
// values otherwise.
func maxRegs(read float64, val func(r *rand.Rand, i int) int64, mk func(w prim.World, procs int) maxReg) func(prim.World, int, int64) gen {
	return func(w prim.World, procs int, seed int64) gen {
		m := mk(w, procs)
		rngs := procRNGs(procs, seed)
		return func(p, i int) history.StressOp {
			if rngs[p].Float64() < read {
				return history.StressOp{Op: spec.MkOp(spec.MethodReadMax),
					Run: func(t prim.Thread) string { return spec.RespInt(m.ReadMax(t)) }}
			}
			v := val(rngs[p], i)
			return history.StressOp{Op: spec.MkOp(spec.MethodWriteMax, v),
				Run: func(t prim.Thread) string { m.WriteMax(t, v); return spec.RespOK }}
		}
	}
}

// below writes values in [0, n).
func below(n int) func(r *rand.Rand, i int) int64 {
	return func(r *rand.Rand, _ int) int64 { return int64(r.Intn(n)) }
}

// climbing writes values in [i*n/2, i*n/2+n) at a worker's i-th operation:
// the max keeps rising through the history instead of saturating early.
func climbing(n int) func(r *rand.Rand, i int) int64 {
	return func(r *rand.Rand, i int) int64 { return int64(i*n/2 + r.Intn(n)) }
}

type monotoneCounter interface {
	Inc(t prim.Thread)
	Read(t prim.Thread) int64
}

// counters drives a monotone counter: a read share of reads, increments
// otherwise.
func counters(read float64, mk func(w prim.World, procs int) monotoneCounter) func(prim.World, int, int64) gen {
	return func(w prim.World, procs int, seed int64) gen {
		c := mk(w, procs)
		rngs := procRNGs(procs, seed)
		return func(p, i int) history.StressOp {
			if rngs[p].Float64() < read {
				return history.StressOp{Op: spec.MkOp(spec.MethodRead),
					Run: func(t prim.Thread) string { return spec.RespInt(c.Read(t)) }}
			}
			return history.StressOp{Op: spec.MkOp(spec.MethodInc),
				Run: func(t prim.Thread) string { c.Inc(t); return spec.RespOK }}
		}
	}
}

type snapshot interface {
	Update(t prim.Thread, v int64)
	Scan(t prim.Thread) []int64
}

// snapshots drives a snapshot: a read share of scans, updates of values
// below vals otherwise. Worker p updates component p.
func snapshots(read float64, vals int, mk func(w prim.World, procs int) snapshot) func(prim.World, int, int64) gen {
	return func(w prim.World, procs int, seed int64) gen {
		s := mk(w, procs)
		rngs := procRNGs(procs, seed)
		return func(p, i int) history.StressOp {
			if rngs[p].Float64() < read {
				return history.StressOp{Op: spec.MkOp(spec.MethodScan),
					Run: func(t prim.Thread) string { return spec.RespVec(s.Scan(t)) }}
			}
			v := int64(rngs[p].Intn(vals))
			return history.StressOp{Op: spec.MkOp(spec.MethodUpdate, int64(p), v),
				Run: func(t prim.Thread) string { s.Update(t, v); return spec.RespOK }}
		}
	}
}

// shaped returns x, or panics if the engine did not take the
// representation its row names (packed, multi-word), so a change to the
// sizing rules cannot quietly move a row onto another engine.
func shaped[T any](x T, ok bool) T {
	if !ok {
		panic("stress row: the engine did not take its row's representation")
	}
	return x
}

// procRNGs gives each worker its own RNG, so a worker's draws do not
// depend on the schedule.
func procRNGs(procs int, seed int64) []*rand.Rand {
	out := make([]*rand.Rand, procs)
	for p := range out {
		out[p] = rand.New(rand.NewSource(seed*1000 + int64(p)))
	}
	return out
}

// uniqueItems returns worker p's next item: p+1, p+1+procs, ... — positive
// and never issued twice.
func uniqueItems(procs int) func(p int) int64 {
	next := make([]int64, procs)
	return func(p int) int64 {
		next[p]++
		return int64(p+1) + (next[p]-1)*int64(procs)
	}
}

func bit(b bool) string {
	if b {
		return spec.RespInt(1)
	}
	return spec.RespInt(0)
}

// kmapWriteResp maps a keyed-map write's error to its spec response.
// ErrFull after a doubling panics: at most 4 keys share the 4-slot
// buckets, so slot exhaustion means a claim leak, not contention.
func kmapWriteResp(err error) string {
	switch {
	case err == nil:
		return spec.RespOK
	case errors.Is(err, keyed.ErrKindMismatch):
		return spec.RespKindMismatch
	default:
		panic(err)
	}
}

// yieldWorld is the real world with a scheduler yield before one in four
// fetch&add and register steps. Real goroutines on a few cores are rarely
// preempted inside one operation, so a race narrower than an operation
// never shows there; the yields put other workers' steps between a
// reader's steps.
type yieldWorld struct{ *prim.RealWorld }

func maybeYield() {
	if rand.Intn(4) == 0 {
		runtime.Gosched()
	}
}

func (w yieldWorld) Register(name string, init int64) prim.Register {
	return yieldRegister{w.RealWorld.Register(name, init)}
}

func (w yieldWorld) AnyRegister(name string, init any) prim.AnyRegister {
	return yieldAnyRegister{w.RealWorld.AnyRegister(name, init)}
}

func (w yieldWorld) FetchAdd(name string) prim.FetchAdd {
	return yieldFetchAdd{w.RealWorld.FetchAdd(name)}
}

func (w yieldWorld) FetchAddInt(name string, init int64) prim.FetchAddInt {
	return yieldFetchAddInt{w.RealWorld.FetchAddInt(name, init)}
}

type yieldRegister struct{ r prim.Register }

func (y yieldRegister) Read(t prim.Thread) int64     { maybeYield(); return y.r.Read(t) }
func (y yieldRegister) Write(t prim.Thread, v int64) { maybeYield(); y.r.Write(t, v) }

type yieldAnyRegister struct{ r prim.AnyRegister }

func (y yieldAnyRegister) ReadAny(t prim.Thread) any     { maybeYield(); return y.r.ReadAny(t) }
func (y yieldAnyRegister) WriteAny(t prim.Thread, v any) { maybeYield(); y.r.WriteAny(t, v) }

type yieldFetchAdd struct{ r prim.FetchAdd }

func (y yieldFetchAdd) FetchAdd(t prim.Thread, d *big.Int) *big.Int {
	maybeYield()
	return y.r.FetchAdd(t, d)
}

type yieldFetchAddInt struct{ r prim.FetchAddInt }

func (y yieldFetchAddInt) FetchAddInt(t prim.Thread, d int64) int64 {
	maybeYield()
	return y.r.FetchAddInt(t, d)
}
