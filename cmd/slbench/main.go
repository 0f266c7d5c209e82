// Command slbench measures the throughput of the paper's constructions
// against their linearizable and universal-primitive comparators under real
// goroutine concurrency (E-PERF). Absolute numbers depend on the host; the
// shape — who wins, by what factor — is the reproducible signal.
//
// Usage:
//
//	slbench [-dur 200ms] [-procs 1,2,4,8] [-json]
//
// With -json it emits one record per (implementation, procs) cell —
// {"name", "procs", "ops_per_sec"}. slbench gates nothing: the perf gate is
// scripts/ab.sh, a same-runner A/B of the end-to-end benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stronglin/internal/baseline"
	"stronglin/internal/cluster"
	"stronglin/internal/core"
	"stronglin/internal/interleave"
	"stronglin/internal/keyed"
	"stronglin/internal/prim"
	"stronglin/internal/shard"
)

// benchKeys is the keyed rows' working set: n distinct string keys.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
	}
	return keys
}

var (
	dur      = flag.Duration("dur", 200*time.Millisecond, "measurement duration per cell")
	procList = flag.String("procs", "1,2,4,8", "comma-separated goroutine counts")
	jsonOut  = flag.Bool("json", false, "emit JSON records instead of the table")
)

type target struct {
	name  string
	build func(procs int) func(t prim.Thread, i int)
}

// cell is one JSON measurement record.
type cell struct {
	Name      string  `json:"name"`
	Procs     int     `json:"procs"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

func main() {
	flag.Parse()
	procs, err := parseProcs(*procList)
	if err != nil {
		fmt.Println(err)
		return
	}

	var cells []cell
	for _, tg := range targets() {
		for _, p := range procs {
			cells = append(cells, cell{Name: tg.name, Procs: p, OpsPerSec: measure(tg, p, *dur)})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(cells)
	} else {
		fmt.Printf("throughput (ops/sec), %v per cell\n\n", *dur)
		header := fmt.Sprintf("%-40s", "implementation")
		for _, p := range procs {
			header += fmt.Sprintf(" %12s", "p="+strconv.Itoa(p))
		}
		fmt.Println(header)
		i := 0
		for range targets() {
			row := fmt.Sprintf("%-40s", cells[i].Name)
			for range procs {
				row += fmt.Sprintf(" %12s", human(cells[i].OpsPerSec))
				i++
			}
			fmt.Println(row)
		}
	}

}

func targets() []target {
	return []target{
		{
			name: "maxreg: fetch&add (Thm 1, SL)",
			build: func(n int) func(prim.Thread, int) {
				m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", n)
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						m.WriteMax(t, int64(i%512))
					} else {
						m.ReadMax(t)
					}
				}
			},
		},
		{
			name: "maxreg: AAC registers (lin)",
			build: func(n int) func(prim.Thread, int) {
				m := baseline.NewAACMaxRegister(prim.NewRealWorld(), "m", 9)
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						m.WriteMax(t, int64(i%512))
					} else {
						m.ReadMax(t)
					}
				}
			},
		},
		{
			name: "snapshot: fetch&add (Thm 2, SL)",
			build: func(n int) func(prim.Thread, int) {
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n)
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						s.Update(t, int64(i%64))
					} else {
						s.Scan(t)
					}
				}
			},
		},
		{
			// Same small value domain as the packed row below, over the wide
			// register: isolates the packing win from the value-magnitude win.
			name: "snapshot: wide small values (SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := packedSnapBound(n)
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n)
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						s.Update(t, int64(i)%(bound+1))
					} else {
						s.Scan(t)
					}
				}
			},
		},
		{
			name: "snapshot: packed word (Thm 2, SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := packedSnapBound(n)
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n, core.WithSnapshotBound(bound))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						s.Update(t, int64(i)%(bound+1))
					} else {
						s.Scan(t)
					}
				}
			},
		},
		{
			// The multi-word engine at a word budget of ⌈p/2⌉ (24-bit fields
			// next to the per-word sequence fields): k XADD words + validated
			// double-collect scans lift the 63-bit ceiling. At p ≤ 2 the
			// bound fits one word and the constructor picks the packed
			// engine — the row is then its lower bound.
			name: "snapshot: multiword k-XADD (SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := interleave.MaxMultiFieldBound(n, (n+1)/2)
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n, core.WithSnapshotBound(bound))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						s.Update(t, int64(i%64))
					} else {
						s.Scan(t)
					}
				}
			},
		},
		{
			// The helped engine with a zero retry budget: every scan that
			// fails a single round raises pressure and adoption becomes the
			// common completion under contention — the worst-case helping
			// configuration. Uncontended (p=1) it must track the multiword
			// row above; the gap under contention prices the help machinery.
			name: "snapshot: mw helped b0 (SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := interleave.MaxMultiFieldBound(n, (n+1)/2)
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n,
					core.WithSnapshotBound(bound), core.WithScanRetryBudget(0))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						s.Update(t, int64(i%64))
					} else {
						s.Scan(t)
					}
				}
			},
		},
		{
			// PR 7 anchor-revalidated view cache under a read-mostly mix:
			// one update per 1024 ops keeps the anchor moving (each one
			// forces a miss + full collect + refresh) while the steady
			// state is the two-load cache-hit scan. Compare against the
			// uncached row below, which runs the identical workload on the
			// bare multiword engine — the gap is what the cache buys.
			name: "snapshot: mw cached rd-mostly (SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := interleave.MaxMultiFieldBound(n, (n+1)/2)
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n,
					core.WithSnapshotBound(bound), core.WithViewCache(true))
				views := perProcViews(n)
				return func(t prim.Thread, i int) {
					if i%1024 == 0 {
						s.Update(t, int64(i%64))
					} else {
						s.ScanInto(t, views[t.(prim.RealThread)])
					}
				}
			},
		},
		{
			name: "snapshot: mw rd-mostly (SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := interleave.MaxMultiFieldBound(n, (n+1)/2)
				s := core.NewFASnapshot(prim.NewRealWorld(), "s", n,
					core.WithSnapshotBound(bound))
				views := perProcViews(n)
				return func(t prim.Thread, i int) {
					if i%1024 == 0 {
						s.Update(t, int64(i%64))
					} else {
						s.ScanInto(t, views[t.(prim.RealThread)])
					}
				}
			},
		},
		{
			name: "snapshot: Afek registers (lin)",
			build: func(n int) func(prim.Thread, int) {
				s := baseline.NewAfekSnapshot(prim.NewRealWorld(), "s", n)
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						s.Update(t, int64(i%64))
					} else {
						s.Scan(t)
					}
				}
			},
		},
		{
			name: "counter: fetch&add 1 core (SL)",
			build: func(n int) func(prim.Thread, int) {
				c := core.NewFACounter(prim.NewRealWorld(), "c")
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						c.Read(t)
					} else {
						c.Inc(t)
					}
				}
			},
		},
		{
			name: "counter: packed word 1 core (SL)",
			build: func(n int) func(prim.Thread, int) {
				c := core.NewFACounter(prim.NewRealWorld(), "c", core.WithCounterBound(1<<40))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						c.Read(t)
					} else {
						c.Inc(t)
					}
				}
			},
		},
		{
			name: "counter: sharded S=min(4,p) (SL)",
			build: func(n int) func(prim.Thread, int) {
				c := shard.NewCounter(prim.NewRealWorld(), "c", n, min(4, n))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						c.Read(t)
					} else {
						c.Inc(t)
					}
				}
			},
		},
		{
			name: "counter: sharded packed (SL)",
			build: func(n int) func(prim.Thread, int) {
				c := shard.NewCounter(prim.NewRealWorld(), "c", n, min(4, n), shard.WithBound(1<<40))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						c.Read(t)
					} else {
						c.Inc(t)
					}
				}
			},
		},
		{
			// The ownership-routing discipline (internal/cluster) wrapped
			// around the identical sharded packed counter: every op pays
			// Table.Route's record read, drain-slot occupy/release and
			// record re-validation on top of the engine op. The gap to the
			// row above is the routing tier's per-request protocol cost
			// with no network in the way — what a frontend adds to an
			// owner-local operation beyond the HTTP hop itself.
			name: "counter: cluster-routed (SL)",
			build: func(n int) func(prim.Thread, int) {
				w := prim.NewRealWorld()
				c := shard.NewCounter(w, "c", n, min(4, n), shard.WithBound(1<<40))
				tb := cluster.NewTable(w, "route", n, 0, "counter")
				noop := func() {}
				return func(t prim.Thread, i int) {
					tb.Route(t, t.ID(), "counter", func(int, int64) error {
						if i%4 == 0 {
							c.Read(t)
						} else {
							c.Inc(t)
						}
						return nil
					}, noop, noop)
				}
			},
		},
		{
			// The epoch-keyed combine cache (PR 7) on the sharded counter's
			// read path, same read-mostly mix as the snapshot cached rows: a
			// hit re-validates with one epoch read instead of a double
			// collect over every shard.
			name: "counter: sharded cached rd-mostly (SL)",
			build: func(n int) func(prim.Thread, int) {
				c := shard.NewCounter(prim.NewRealWorld(), "c", n, min(4, n),
					shard.WithBound(1<<40), shard.WithReadCache(true))
				return func(t prim.Thread, i int) {
					if i%1024 == 0 {
						c.Inc(t)
					} else {
						c.Read(t)
					}
				}
			},
		},
		{
			// Same small value domain as the packed row below, over the wide
			// register: isolates the packing win from the value-magnitude win.
			name: "maxreg: wide small values (SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := packedMaxRegBound(n)
				m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", n)
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						m.WriteMax(t, int64(i)%(bound+1))
					} else {
						m.ReadMax(t)
					}
				}
			},
		},
		{
			name: "maxreg: packed word (Thm 1, SL)",
			build: func(n int) func(prim.Thread, int) {
				bound := packedMaxRegBound(n)
				m := core.NewFAMaxRegister(prim.NewRealWorld(), "m", n, core.WithMaxRegBound(bound))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						m.WriteMax(t, int64(i)%(bound+1))
					} else {
						m.ReadMax(t)
					}
				}
			},
		},
		{
			name: "maxreg: sharded S=min(4,p) (SL)",
			build: func(n int) func(prim.Thread, int) {
				m := shard.NewMaxRegister(prim.NewRealWorld(), "m", n, min(4, n))
				return func(t prim.Thread, i int) {
					if i%4 == 0 {
						m.WriteMax(t, int64(i%512))
					} else {
						m.ReadMax(t)
					}
				}
			},
		},
		{
			// slserve's default maxreg: 8 lanes over 4 unbounded (wide) shards
			// with the combine cache on, every lane pre-raised to just below
			// 1024, and a 1:1 write:read mix of values below 1024 — the
			// writes are then almost all no-op raises, whose epoch announces
			// still make the next read miss the cache and decode every
			// shard's ~2048-bit word.
			name: "maxreg: sharded wide, slserve shape (SL)",
			build: func(n int) func(prim.Thread, int) {
				lanes := max(8, n)
				m := shard.NewMaxRegister(prim.NewRealWorld(), "m", lanes, 4, shard.WithReadCache(true))
				for l := 0; l < lanes; l++ {
					m.WriteMax(prim.RealThread(l), 1023-int64(l%8))
				}
				return func(t prim.Thread, i int) {
					if i%2 == 0 {
						m.WriteMax(t, int64(i%1024))
					} else {
						m.ReadMax(t)
					}
				}
			},
		},
		{
			name: "fetch&inc: test&set (Thm 9, SL)",
			build: func(n int) func(prim.Thread, int) {
				f := core.NewFetchIncFromTAS(prim.NewRealWorld(), "f")
				return func(t prim.Thread, i int) { f.FetchIncrement(t) }
			},
		},
		{
			name: "fetch&inc: fetch&add (SL)",
			build: func(n int) func(prim.Thread, int) {
				f := core.NewFAFetchInc(prim.NewRealWorld(), "f")
				return func(t prim.Thread, i int) { f.FetchIncrement(t) }
			},
		},
		{
			name: "fetch&inc: sync/atomic (native)",
			build: func(n int) func(prim.Thread, int) {
				var c atomic.Int64
				return func(t prim.Thread, i int) { c.Add(1) }
			},
		},
		{
			name: "set: test&set (Thm 10, SL)",
			build: func(n int) func(prim.Thread, int) {
				s := core.NewTASSetAtomic(prim.NewRealWorld(), "s")
				var next atomic.Int64
				return func(t prim.Thread, i int) {
					if i%2 == 0 {
						s.Put(t, next.Add(1))
					} else {
						s.Take(t)
					}
				}
			},
		},
		{
			name: "set: mutex map (lock-based)",
			build: func(n int) func(prim.Thread, int) {
				var mu sync.Mutex
				m := make(map[int64]struct{})
				var next int64
				return func(t prim.Thread, i int) {
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
				}
			},
		},
		{
			// The keyed universe's hashed grow-only set at a 64-key working
			// set (1:3 add:has, the dense rows' mix). Adds re-add existing
			// keys after the first pass — the monotone steady state — so the
			// row measures the one-XADD write and the one-bucket validated
			// collect, not directory churn. ErrFull grows the table in-band
			// (the server's discipline), so a skewed hash can't wedge the row.
			name: "kgset: hashed (SL)",
			build: func(n int) func(prim.Thread, int) {
				g := keyed.NewGSet(prim.NewRealWorld(), "kg", n)
				keys := benchKeys(64)
				return func(t prim.Thread, i int) {
					k := keys[i%len(keys)]
					if i%4 == 0 {
						for g.Add(t, k) != nil {
							_ = g.Rehash(t, 2*g.Buckets(t))
						}
					} else {
						g.Has(t, k)
					}
				}
			},
		},
		{
			// The keyed monotone map, counter kind, same 64-key working set
			// and 1:3 inc:get mix: one in-field XADD per write, one-bucket
			// epoch-validated collect (sum of lanes) per read.
			name: "map: keyed inc/get (SL)",
			build: func(n int) func(prim.Thread, int) {
				m := keyed.NewMonotoneMap(prim.NewRealWorld(), "km", n)
				keys := benchKeys(64)
				return func(t prim.Thread, i int) {
					k := keys[i%len(keys)]
					if i%4 == 0 {
						for m.IncBy(t, k, 1) != nil {
							_ = m.Rehash(t, 2*m.Buckets(t))
						}
					} else {
						m.Get(t, k)
					}
				}
			},
		},
		{
			name: "queue: Herlihy–Wing (lin)",
			build: func(n int) func(prim.Thread, int) {
				q := baseline.NewHWQueueLazy(prim.NewRealWorld(), "q", 1<<22)
				return func(t prim.Thread, i int) {
					if i%2 == 0 {
						q.Enqueue(t, int64(i+1))
					} else {
						q.DequeueBounded(t)
					}
				}
			},
		},
		{
			name: "queue: CAS universal (SL)",
			build: func(n int) func(prim.Thread, int) {
				q := baseline.NewCASQueue(prim.NewRealWorld(), "q", n)
				return func(t prim.Thread, i int) {
					if i%2 == 0 {
						q.Enqueue(t, int64(i+1))
					} else {
						q.Dequeue(t)
					}
				}
			},
		},
	}
}

// packedMaxRegBound is the largest value bound whose unary encoding packs for
// n lanes: n x (bound+1) <= 63 bits. Both maxreg comparison rows (packed and
// wide) share this bound so they always measure the same workload on the two
// engines. Past 31 lanes the bound degenerates to 0 — every write is then the
// no-op fetch&add(0) path on both rows (still like-for-like, but no raises) —
// and past 63 lanes even bound 0 cannot pack, so the "packed" row itself runs
// on the wide fallback; the default -procs list (1-8) stays well clear.
func packedMaxRegBound(n int) int64 {
	b := int64(63/n - 1)
	if b < 0 {
		b = 0
	}
	return b
}

// packedSnapBound is the component bound both snapshot comparison rows share:
// the largest value whose binary fields pack for n lanes (the engine's own
// interleave.MaxFieldBound), capped at 63 to keep the written values modest.
// The encoding therefore packs for every n up to 63; past 63 lanes no field
// width fits (MaxFieldBound returns 0, the rows use bound 1) and the
// "packed" row itself runs on the wide fallback (still like-for-like with
// the wide row).
func packedSnapBound(n int) int64 {
	b := interleave.MaxFieldBound(n)
	if b > 63 {
		b = 63
	}
	if b < 1 {
		b = 1
	}
	return b
}

// perProcViews allocates one scan scratch view per goroutine so the cached
// rows measure the engine, not per-scan allocation; measure hands goroutine p
// the thread RealThread(p), which doubles as the index here.
func perProcViews(n int) [][]int64 {
	views := make([][]int64, n)
	for p := range views {
		views[p] = make([]int64, n)
	}
	return views
}

func measure(tg target, procs int, d time.Duration) float64 {
	op := tg.build(procs)
	var stop atomic.Bool
	counts := make([]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := prim.RealThread(p)
			for i := 0; !stop.Load(); i++ {
				op(th, i)
				counts[p]++
			}
		}(p)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	return float64(total) / d.Seconds()
}

func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("slbench: bad -procs entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
