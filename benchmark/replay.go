package main

import (
	"errors"
	"fmt"
	"time"

	"stronglin/internal/cluster"
	"stronglin/internal/core"
	"stronglin/internal/interleave"
	"stronglin/internal/keyed"
	"stronglin/internal/obs"
	"stronglin/internal/pool"
	"stronglin/internal/prim"
	"stronglin/internal/shard"
)

// The replays time each layer on its own: the workload's op sequence is fed
// straight into the public functions of one internal package, on objects
// built with the options slserve's newServerCfg uses at its default flags
// (8 lanes, 4 shards, -bound 0, library scan budgets, caches on, obs
// instruments attached). Each layer replays the ops of the sequence that
// reach it, in sequence order, on fresh objects; batches of replayBatch
// calls are wrapped in one span each.
const (
	replayLanes  = 8
	replayShards = 4
	replayBatch  = 256
	maxReplayOps = 50000
	// replayBudget caps the wall time of one layer's replay: the wide max
	// register at -bound 0 costs tens of microseconds per write.
	replayBudget = 700 * time.Millisecond
	// counterBound is slserve's declared counter capacity.
	counterBound = int64(1) << 40
	// keyPartitions is slserve's keyed routing partition count.
	keyPartitions = 4
)

// replayMetric names the per-layer metric an op kind's replay time feeds.
var replayMetric = [numOps]string{
	opCounterInc: "shard.counter_inc_ns", opCounterRead: "shard.counter_read_ns",
	opMaxregWrite: "shard.maxreg_write_ns", opMaxregRead: "shard.maxreg_read_ns",
	opGSetAdd: "shard.gset_add_ns", opGSetHas: "shard.gset_has_ns",
	opSnapUpdate: "core.snapshot_update_ns", opSnapScan: "core.snapshot_scan_ns",
	opMsnapUpdate: "core.msnapshot_update_ns", opMsnapScan: "core.msnapshot_scan_ns",
	opMapInc: "keyed.map_inc_ns", opMapMax: "keyed.map_max_ns", opMapGet: "keyed.map_get_ns",
	opKGSetAdd: "keyed.kgset_add_ns", opKGSetHas: "keyed.kgset_has_ns",
}

// layerOf assigns each op kind to the engine layer that serves it.
func layerOf(k opKind) int {
	switch {
	case k <= opGSetHas:
		return spanReplayShard
	case k <= opMsnapScan:
		return spanReplayCore
	default:
		return spanReplayKeyed
	}
}

type replayer struct {
	w       workload
	seed    int64
	ops     []op
	keys    *keyNames
	tr      *tracer
	wr      int // the tracer buffer the replays write
	nowCost float64
	out     map[string]float64
}

// replay times every layer on ops and returns the replay metrics (ns per
// call, keyed.rehash_ms in ms). Layers the sequence never reaches read 0.
func replay(w workload, seed int64, ops []op, keys *keyNames, tr *tracer, wr int) (map[string]float64, error) {
	r := &replayer{w: w, seed: seed, ops: ops, keys: keys, tr: tr, wr: wr, nowCost: clockCost(), out: map[string]float64{}}
	for _, name := range replayMetric {
		r.out[name] = 0
	}
	r.out["pool.with_ns"] = r.pool()
	r.engines()
	if err := r.keyedLayer(); err != nil {
		return nil, err
	}
	r.out["cluster.route_ns"] = r.route()
	return r.out, nil
}

// clockCost is the mean cost of one time.Now, subtracted from per-call
// timings so a call's mean excludes the clock read that timed it. Layers
// with one kind of call (pool, route) are timed per batch instead.
func clockCost() float64 {
	const n = 20000
	start := time.Now()
	var last time.Time
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	return float64(last.Sub(start).Nanoseconds()) / n
}

// timed runs the calls of one layer in batches of replayBatch, each batch a
// span, until the calls or the time budget run out. It returns the mean ns
// per call over the batches.
func (r *replayer) timed(layer, n int, call func(i int)) float64 {
	deadline := time.Now().Add(replayBudget)
	var total time.Duration
	calls := 0
	for lo := 0; lo < n && time.Now().Before(deadline); lo += replayBatch {
		hi := min(n, lo+replayBatch)
		start := time.Now()
		for i := lo; i < hi; i++ {
			call(i)
		}
		end := time.Now()
		total += end.Sub(start)
		calls += hi - lo
		if r.tr != nil {
			r.tr.add(r.wr, r.tr.newReq(r.wr), layer, start, end)
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// pool replays one lease per op (every request leases a lane) and returns
// the mean ns of one With around an empty body.
func (r *replayer) pool() float64 {
	p := pool.New(prim.NewRealWorld(), "stronglin.pool", replayLanes)
	return r.timed(spanReplayPool, len(r.ops), func(int) { p.With(func(prim.RealThread) {}) })
}

// engines replays the dense objects: the shard layer (counter, max
// register, gset) and the core snapshots, each on its own ops.
func (r *replayer) engines() {
	w := prim.NewRealWorld()
	reg := obs.NewRegistry()
	shardObs := func(name string) shard.Option {
		return shard.WithObs(obs.ShardMetrics{
			ReadRounds: reg.Histogram("replay_"+name+"_read_rounds", name),
			CacheHits:  reg.Counter("replay_"+name+"_cache_hits_total", name),
		})
	}
	counter := shard.NewCounter(w, "stronglin.shardctr", replayLanes, replayShards,
		shard.WithBound(counterBound), shard.WithReadCache(true), shardObs("counter"))
	maxreg := shard.NewMaxRegister(w, "stronglin.shardmax", replayLanes, replayShards,
		shard.WithReadCache(true), shardObs("maxreg"))
	gset := shard.NewGSet(w, "stronglin.shardgset", replayLanes, replayShards,
		shard.WithReadCache(true), shardObs("gset"))
	snap := core.NewFASnapshot(w, "stronglin.snapshot", replayLanes,
		core.WithSnapshotObs(obs.SnapMetrics{ScanRounds: reg.Histogram("replay_snapshot_scan_rounds", "snapshot")}),
		core.WithLiveRebase(true))
	msnap := core.NewFASnapshot(w, "stronglin.msnapshot", replayLanes,
		core.WithSnapshotBound(interleave.MaxMultiFieldBound(replayLanes, (replayLanes+1)/2)),
		core.WithLiveRebase(true), core.WithViewCache(true),
		core.WithSnapshotObs(obs.SnapMetrics{
			ScanRounds: reg.Histogram("replay_msnapshot_scan_rounds", "msnapshot"),
			CacheHits:  reg.Counter("replay_msnapshot_cache_hits_total", "msnapshot"),
		}))
	apply := func(o op, t prim.RealThread) {
		switch o.kind {
		case opCounterInc:
			counter.Inc(t)
		case opCounterRead:
			counter.Read(t)
		case opMaxregWrite:
			maxreg.WriteMax(t, o.val)
		case opMaxregRead:
			maxreg.ReadMax(t)
		case opGSetAdd:
			gset.Add(t, o.val)
		case opGSetHas:
			gset.Has(t, o.val)
		case opSnapUpdate:
			snap.Update(t, o.val)
		case opSnapScan:
			snap.Scan(t)
		case opMsnapUpdate:
			msnap.Update(t, o.val)
		case opMsnapScan:
			msnap.Scan(t)
		}
	}
	for _, layer := range []int{spanReplayShard, spanReplayCore} {
		r.perKind(layer, func(o op, t prim.RealThread) error { apply(o, t); return nil })
	}
}

// perKind replays the ops of one layer, timing every call, and stores each
// kind's mean under its replay metric. Lanes rotate the way the pool's
// ticket-seeded claims hand them out.
func (r *replayer) perKind(layer int, apply func(o op, t prim.RealThread) error) error {
	var sel []op
	for _, o := range r.ops {
		if layerOf(o.kind) == layer {
			sel = append(sel, o)
		}
	}
	var total [numOps]time.Duration
	var calls [numOps]int
	var firstErr error
	r.timed(layer, len(sel), func(i int) {
		o := sel[i]
		t := prim.RealThread(i % replayLanes)
		t0 := time.Now()
		err := apply(o, t)
		total[o.kind] += time.Since(t0)
		calls[o.kind]++
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	for k := range total {
		if calls[k] > 0 {
			r.out[replayMetric[k]] = max(0, float64(total[k].Nanoseconds())/float64(calls[k])-r.nowCost)
		}
	}
	return firstErr
}

// growFull is slserve's growth rule: on ErrFull, double the bucket table
// and retry. Each rehash is timed into rehashes.
func growFull(op func() error, grow func() error, rehashes *[]time.Duration) error {
	err := op()
	for errors.Is(err, keyed.ErrFull) {
		t0 := time.Now()
		gerr := grow()
		*rehashes = append(*rehashes, time.Since(t0))
		if gerr != nil {
			return err
		}
		err = op()
	}
	return err
}

// keyedLayer preloads the keyed families as setup does (untimed except for
// the rehashes growth triggers) and replays the keyed ops.
func (r *replayer) keyedLayer() error {
	r.out["keyed.rehash_ms"] = 0
	if !r.w.keyed() {
		return nil
	}
	w := prim.NewRealWorld()
	kg := keyed.NewGSet(w, "stronglin.kgset", replayLanes)
	km := keyed.NewMonotoneMap(w, "stronglin.kmap", replayLanes)
	var rehashes []time.Duration
	apply := func(o op, t prim.RealThread) error {
		k := r.keys[o.fam][o.key]
		switch o.kind {
		case opMapInc:
			return growFull(func() error { return km.IncBy(t, k, 1) },
				func() error { return km.Rehash(t, 2*km.Buckets(t)) }, &rehashes)
		case opMapMax:
			return growFull(func() error { return km.Max(t, k, o.val) },
				func() error { return km.Rehash(t, 2*km.Buckets(t)) }, &rehashes)
		case opMapGet:
			if _, err := km.Get(t, k); err != nil {
				return err
			}
			km.Kind(t, k)
		case opKGSetAdd:
			return growFull(func() error { return kg.Add(t, k) },
				func() error { return kg.Rehash(t, 2*kg.Buckets(t)) }, &rehashes)
		case opKGSetHas:
			kg.Has(t, k)
		}
		return nil
	}
	for i, o := range preloadOps(r.w, r.seed) {
		if err := apply(o, prim.RealThread(i%replayLanes)); err != nil {
			return fmt.Errorf("keyed replay preload: %w", err)
		}
	}
	if len(rehashes) > 0 {
		var sum time.Duration
		for _, d := range rehashes {
			sum += d
		}
		r.out["keyed.rehash_ms"] = float64(sum.Nanoseconds()) / float64(len(rehashes)) / 1e6
	}
	if err := r.perKind(spanReplayKeyed, apply); err != nil {
		return fmt.Errorf("keyed replay: %w", err)
	}
	return nil
}

// routeKey is the ownership-table key slserve -frontend routes o by.
func (r *replayer) routeKey(o op, routes *[2][keyPartitions]string) string {
	switch o.kind {
	case opCounterInc, opCounterRead:
		return "counter"
	case opMaxregWrite, opMaxregRead:
		return "maxreg"
	case opGSetAdd, opGSetHas:
		return "gset"
	}
	p := keyed.Hash(r.keys[o.fam][o.key]) % keyPartitions
	if o.kind == opKGSetAdd || o.kind == opKGSetHas {
		return routes[0][p]
	}
	return routes[1][p]
}

// route replays the routed workload's ops through cluster.Table.Route with
// the frontend's slot count and a settled owner, an empty apply and no-op
// ack closures: the ownership protocol alone. 0 on unrouted workloads.
func (r *replayer) route() float64 {
	if !r.w.routed {
		return 0
	}
	var routes [2][keyPartitions]string
	keys := []string{"counter", "maxreg", "gset"}
	for p := 0; p < keyPartitions; p++ {
		routes[0][p] = fmt.Sprintf("kgset.p%d", p)
		routes[1][p] = fmt.Sprintf("map.p%d", p)
		keys = append(keys, routes[0][p], routes[1][p])
	}
	tb := cluster.NewTable(prim.NewRealWorld(), "route", 64, 0, keys...)
	rk := make([]string, len(r.ops))
	for i, o := range r.ops {
		rk[i] = r.routeKey(o, &routes)
	}
	noop := func() {}
	apply := func(int, int64) error { return nil }
	t := prim.RealThread(1)
	return r.timed(spanReplayCluster, len(rk), func(i int) {
		_ = tb.Route(t, 0, rk[i], apply, noop, noop) // settled record, empty apply: cannot fail
	})
}
