// Frontend mode: slserve -frontend -backends http://a,http://b,http://c
//
// The frontend is the routing tier over a pool of single-node slserve
// backends. It owns NO object state — the impossibility results (arXiv
// 2108.01651) leave single ownership as the only honest distribution for
// strongly-linearizable objects, so every routed object (counter, maxreg,
// gset) lives at exactly one backend at a time, chosen by rendezvous
// hashing over the live membership view. The frontend's job is the part
// that IS distributed: deciding ownership, moving it when a backend dies
// (the fenced handoff protocol of internal/cluster, model-checked in the
// simulated world), and absorbing the churn so clients see only bounded
// retries — never a lost acked update, never an answer split across two
// owners.
//
// Request path: lease a drain slot, Table.Route validates the ownership
// record (one packed register word — generation, owner, cutover can never
// tear), the apply step proxies the request to the owner carrying X-SL-Gen,
// and the backend's own fence floor 409s any generation that raced a
// handoff (Route re-routes). Acks fold into the frontend's per-object
// ledgers BEFORE the slot is released, which is exactly what makes the
// migrator's drain barrier meaningful: drained ⇒ every acked effect is in
// the ledger ⇒ the seed carries it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	neturl "net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stronglin/internal/cluster"
	"stronglin/internal/obs"
	"stronglin/internal/prim"
)

var (
	frontendMode    = flag.Bool("frontend", false, "run the routing tier over -backends instead of serving objects locally")
	backendsFlag    = flag.String("backends", "", "comma-separated backend base URLs (frontend mode)")
	routeTimeout    = flag.Duration("route-timeout", 2*time.Second, "per-proxied-request timeout (frontend mode)")
	routeRetries    = flag.Int("retries", 3, "retry budget per client request across re-routes and retryable refusals (frontend mode)")
	hedgeAfter      = flag.Duration("hedge-after", 0, "duplicate a slow READ to the same owner after this delay, first answer wins (0 = off; frontend mode)")
	healthEvery     = flag.Duration("health-interval", 250*time.Millisecond, "backend /healthz probe interval (frontend mode)")
	healthDownAfter = flag.Int("health-down-after", 2, "consecutive bad probes before a backend is down (frontend mode)")
	healthUpAfter   = flag.Int("health-up-after", 2, "consecutive good probes before a down backend rejoins (frontend mode)")
	handoffDrain    = flag.Duration("handoff-drain", 500*time.Millisecond, "drain wait for in-flight routed requests before a handoff steals their slots (frontend mode)")
	degradedReads   = flag.Bool("degraded-reads", true, "serve reads from the acked ledger (marked X-SL-Degraded) while no owner is reachable; off = 503 (frontend mode)")
)

// frontendConfig carries the frontend tunables explicitly so tests build
// frontends without touching flag globals.
type frontendConfig struct {
	backends      []string
	routeTimeout  time.Duration
	retries       int
	hedgeAfter    time.Duration
	health        cluster.HealthConfig
	drain         time.Duration
	degradedReads bool
	slots         int
}

func (c frontendConfig) withDefaults() frontendConfig {
	if c.routeTimeout <= 0 {
		c.routeTimeout = 2 * time.Second
	}
	if c.retries < 0 {
		c.retries = 0
	}
	if c.drain <= 0 {
		c.drain = 500 * time.Millisecond
	}
	if c.slots <= 0 {
		c.slots = 64
	}
	return c
}

// frontend is the routing tier: the ownership table (on a real prim world —
// the same protocol the simulated games model-check), the health view, the
// acked ledgers, and the proxy surface.
type frontend struct {
	cfg    frontendConfig
	tb     *cluster.Table
	health *cluster.Health
	pools  []*backendPool // one per cfg.backends entry, same index
	slots  chan int
	kick   chan struct{} // reconciler wake signal (coalesced)

	// Acked ledgers: one per routed object, folded by Route's ack closure
	// before the drain slot is released. They are the crash-handoff seed
	// (the old owner is gone; the acked history is what must survive) and
	// the degraded-read source. counterLedger counts acked increments;
	// maxLedger is the max over acked write-max values; gsetLedger the set
	// of acked adds.
	counterLedger atomic.Int64
	maxLedger     atomic.Int64
	gsetMu        sync.Mutex
	gsetLedger    map[int64]struct{}

	// Keyed ledgers: the acked history of the keyed universe, spanning all
	// partitions (seeds filter by keyedPartition). kgsetLedger is the set of
	// acked /kgset/add keys; kmapLedger folds acked /map/inc deltas (sum)
	// and /map/max values (max) per key, tagged with the kind the first
	// acked write bound.
	keyedMu     sync.Mutex
	kgsetLedger map[string]struct{}
	kmapLedger  map[string]*kmapAck

	reg             *obs.Registry
	reqTotal        *obs.Counter
	reqErrors       *obs.Counter
	reqDur          *obs.Histogram
	handoffs        *obs.Counter
	handoffFailures *obs.Counter
	handoffDur      *obs.Histogram
	retriesTotal    *obs.Counter
	hedges          *obs.Counter
	degraded        *obs.Counter
	backoffNs       *obs.Histogram
	dials           *obs.Counter
}

// kmapAck is one key's acked monotone-map history: for kind "counter", val
// is the sum of acked deltas; for kind "max", the largest acked write.
type kmapAck struct {
	kind string
	val  int64
}

// kgsetRoutes and mapRoutes are the keyed partitions' routing keys
// (kgset.pN / map.pN), indexed by keyedPartition.
var kgsetRoutes, mapRoutes = partitionRoutes("kgset"), partitionRoutes("map")

func partitionRoutes(object string) (routes [keyPartitions]string) {
	for p := range routes {
		routes[p] = fmt.Sprintf("%s.p%d", object, p)
	}
	return routes
}

// routedKeys is every object the ownership table carries: the three dense
// singletons plus one routing key per keyed partition (kgset.pN / map.pN),
// so a handoff moves one keyed partition without fencing the rest.
func routedKeys() []string {
	keys := []string{"counter", "maxreg", "gset"}
	for p := 0; p < keyPartitions; p++ {
		keys = append(keys, kgsetRoutes[p], mapRoutes[p])
	}
	return keys
}

func newFrontend(cfg frontendConfig) (*frontend, error) {
	cfg = cfg.withDefaults()
	w := prim.NewRealWorld()
	f := &frontend{
		cfg:         cfg,
		tb:          cluster.NewTable(w, "route", cfg.slots, -1, routedKeys()...),
		slots:       make(chan int, cfg.slots),
		kick:        make(chan struct{}, 1),
		gsetLedger:  make(map[int64]struct{}),
		kgsetLedger: make(map[string]struct{}),
		kmapLedger:  make(map[string]*kmapAck),
		reg:         obs.NewRegistry(),
	}
	for i := 0; i < cfg.slots; i++ {
		f.slots <- i
	}
	f.health = cluster.NewHealth(cfg.backends, cfg.health, func(int64) {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	})
	f.registerMetrics()
	for _, b := range cfg.backends {
		p, err := newBackendPool(b, cfg.routeTimeout, cfg.slots, f.dials)
		if err != nil {
			return nil, err
		}
		f.pools = append(f.pools, p)
	}
	return f, nil
}

func (f *frontend) registerMetrics() {
	f.reqTotal = f.reg.Counter("slfront_requests_total", "client requests handled by the frontend")
	f.reqErrors = f.reg.Counter("slfront_request_errors_total", "client requests answered >= 400")
	f.reqDur = f.reg.Histogram("slfront_request_duration_ns", "client request latency including retries and backoff")
	f.handoffs = f.reg.Counter("cluster_handoffs_total", "completed ownership handoffs (fence, drain, seed, install)")
	f.handoffFailures = f.reg.Counter("cluster_handoff_failures_total", "handoffs abandoned mid-flight (seed unreachable); retried by the reconciler")
	f.handoffDur = f.reg.Histogram("cluster_handoff_duration_ns", "fence-to-install latency of completed handoffs")
	f.retriesTotal = f.reg.Counter("cluster_retries_total", "proxied-request retries after retryable refusals")
	f.hedges = f.reg.Counter("cluster_hedges_total", "hedged read duplicates fired")
	f.degraded = f.reg.Counter("cluster_degraded_reads_total", "reads served from the acked ledger while no owner was reachable")
	f.backoffNs = f.reg.Histogram("cluster_backoff_ns", "per-retry backoff sleeps (jittered, Retry-After honored)")
	f.dials = f.reg.Counter("slfront_backend_dials_total", "TCP connections dialed to backends (reused idle connections are not counted)")
	f.reg.GaugeFunc("cluster_epoch", "health view epoch (bumps on any backend state change)", f.health.Epoch)
	f.reg.CounterFunc("cluster_reroutes_total", "routing re-validations (record moved or backend fenced the generation)", f.tb.Stats.Reroutes.Load)
	f.reg.CounterFunc("cluster_raced_total", "requests refused retryable because a handoff stole their slot", f.tb.Stats.Raced.Load)
	f.reg.CounterFunc("cluster_steals_total", "drain slots stolen at handoff drain timeout", f.tb.Stats.Steals.Load)
	f.reg.CounterFunc("cluster_fences_total", "handoffs started (ownership records fenced)", f.tb.Stats.Fences.Load)
	for i := range f.cfg.backends {
		i := i
		f.reg.GaugeFunc(fmt.Sprintf("cluster_backend_%d_state", i),
			fmt.Sprintf("backend %d health (0 up, 1 degraded, 2 down)", i),
			func() int64 { return int64(f.health.State(i)) })
	}
}

// foldMax folds an acked write-max value into the max ledger.
func (f *frontend) foldMax(v int64) {
	for {
		cur := f.maxLedger.Load()
		if v <= cur || f.maxLedger.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (f *frontend) addElem(x int64) {
	f.gsetMu.Lock()
	f.gsetLedger[x] = struct{}{}
	f.gsetMu.Unlock()
}

func (f *frontend) gsetSnapshot() []int64 {
	f.gsetMu.Lock()
	out := make([]int64, 0, len(f.gsetLedger))
	for e := range f.gsetLedger {
		out = append(out, e)
	}
	f.gsetMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (f *frontend) hasElem(x int64) bool {
	f.gsetMu.Lock()
	_, ok := f.gsetLedger[x]
	f.gsetMu.Unlock()
	return ok
}

// ackKGSetAdd folds an acked /kgset/add into the keyed set ledger.
func (f *frontend) ackKGSetAdd(key string) {
	f.keyedMu.Lock()
	f.kgsetLedger[key] = struct{}{}
	f.keyedMu.Unlock()
}

func (f *frontend) kgsetHasAcked(key string) bool {
	f.keyedMu.Lock()
	_, ok := f.kgsetLedger[key]
	f.keyedMu.Unlock()
	return ok
}

// ackMapInc folds an acked /map/inc delta (negative d withdraws a stolen
// slot's ack, mirroring the counter ledger's unack).
func (f *frontend) ackMapInc(key string, d int64) {
	f.keyedMu.Lock()
	if e := f.kmapLedger[key]; e != nil {
		e.val += d
	} else if d > 0 {
		f.kmapLedger[key] = &kmapAck{kind: "counter", val: d}
	}
	f.keyedMu.Unlock()
}

// ackMapMax folds an acked /map/max value. No unack twin: a max write that
// reached the backend is monotone and idempotent, so keeping it seeded can
// only re-assert an effect that already landed (the same policy as the
// dense maxreg ledger).
func (f *frontend) ackMapMax(key string, v int64) {
	f.keyedMu.Lock()
	if e := f.kmapLedger[key]; e != nil {
		if v > e.val {
			e.val = v
		}
	} else {
		f.kmapLedger[key] = &kmapAck{kind: "max", val: v}
	}
	f.keyedMu.Unlock()
}

func (f *frontend) kmapAcked(key string) (kmapAck, bool) {
	f.keyedMu.Lock()
	defer f.keyedMu.Unlock()
	if e := f.kmapLedger[key]; e != nil {
		return *e, true
	}
	return kmapAck{}, false
}

// ---------------------------------------------------------------------------
// Reconciler: drive ownership toward the rendezvous choice over the live view.

// startReconciler runs the single reconciliation goroutine: woken by health
// state changes and by a safety-net tick (a handoff abandoned because the
// seed target died mid-flight leaves the cutover bit up; the tick retries it
// even if no further probe flips state).
func (f *frontend) startReconciler(ctx context.Context) {
	interval := f.cfg.health.Interval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-f.kick:
			case <-tick.C:
			}
			f.reconcileOnce(ctx)
		}
	}()
}

// reconcileOnce moves every object whose recorded owner disagrees with the
// rendezvous owner of the current view (or whose last handoff was left
// mid-cutover). Serialized: only the reconciler goroutine and the startup
// path call it, never concurrently.
func (f *frontend) reconcileOnce(ctx context.Context) {
	t := prim.RealThread(0)
	view := f.health.View()
	cands := view.Candidates()
	for _, key := range f.tb.Keys() {
		owner, _, settled := f.tb.Owner(t, key)
		want := cluster.RendezvousOwner(key, f.cfg.backends, cands)
		if want < 0 {
			// No candidate at all: leave the record as-is (routes refuse
			// retryable / serve degraded reads) rather than thrash.
			continue
		}
		if settled && owner == want {
			continue
		}
		f.handoff(ctx, t, key, want)
	}
}

// handoff runs the transfer protocol for one object: fence (table + old
// owner's HTTP floor), drain-or-steal, seed the successor with the
// authoritative value, install. A failed seed leaves the cutover bit up —
// routing refuses ErrMigrating, no request can land anywhere — and the
// reconciler's next pass re-fences (the generation bumps again) and retries.
func (f *frontend) handoff(ctx context.Context, t prim.Thread, key string, newOwner int) {
	start := time.Now()
	oldOwner, gen := f.tb.Fence(t, key)

	// Raise the old owner's backend-side floor. Success means the fence is
	// BILATERAL — when /fence returns, no request of a retired generation is
	// still applying there (the gate's write lock), so a post-fence read of
	// the old owner is the object's authoritative value, phantoms included.
	// Failure (crashed, partitioned) means crash handoff: the acked ledger
	// alone seeds the successor, which is exactly the guarantee acks bought.
	graceful := false
	if oldOwner >= 0 {
		graceful = f.postFence(ctx, oldOwner, key, gen) == nil
	}

	// Drain: every slot released proves its request's ack is in the ledger.
	// Stragglers past the budget get their slots STOLEN — Route withdraws
	// their acks and refuses them retryable, so the seed never misses an
	// acked effect.
	deadline := time.Now().Add(f.cfg.drain)
	for !f.tb.Drained(t, key) {
		if time.Now().After(deadline) {
			f.tb.StealSlots(t, key)
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	if err := f.seed(ctx, key, oldOwner, newOwner, gen, graceful); err != nil {
		f.handoffFailures.Inc()
		return
	}
	f.tb.Install(t, key, newOwner)
	f.handoffs.Inc()
	f.handoffDur.Observe(time.Since(start).Nanoseconds())
}

// seed makes newOwner authoritative for key at generation gen: the acked
// ledger merged (monotone objects — max/union/monotone-add deltas, all
// idempotent under the re-seeding a retried handoff causes) with the old
// owner's post-fence value when the handoff is graceful.
func (f *frontend) seed(ctx context.Context, key string, oldOwner, newOwner int, gen int64, graceful bool) error {
	switch key {
	case "counter":
		auth := f.counterLedger.Load()
		if graceful {
			if v, err := f.getValue(ctx, oldOwner, gen, "/counter"); err == nil && v > auth {
				auth = v
			}
		}
		// The successor may hold a stale value from an earlier tenure; the
		// counter only grows, so stale <= authoritative and one /counter/add
		// of the difference reconciles it.
		cur, err := f.getValue(ctx, newOwner, gen, "/counter")
		if err != nil {
			return err
		}
		if auth > cur {
			return f.post(ctx, newOwner, gen, fmt.Sprintf("/counter/add?d=%d", auth-cur))
		}
	case "maxreg":
		auth := f.maxLedger.Load()
		if graceful {
			if v, err := f.getValue(ctx, oldOwner, gen, "/maxreg"); err == nil && v > auth {
				auth = v
			}
		}
		if auth > 0 {
			return f.post(ctx, newOwner, gen, fmt.Sprintf("/maxreg?v=%d", auth))
		}
	case "gset":
		elems := f.gsetSnapshot()
		if graceful {
			if old, err := f.getElems(ctx, oldOwner, gen); err == nil {
				merged := make(map[int64]struct{}, len(elems)+len(old))
				for _, e := range elems {
					merged[e] = struct{}{}
				}
				for _, e := range old {
					merged[e] = struct{}{}
				}
				elems = elems[:0]
				for e := range merged {
					elems = append(elems, e)
				}
			}
		}
		for _, e := range elems {
			if err := f.post(ctx, newOwner, gen, fmt.Sprintf("/gset?x=%d", e)); err != nil {
				return err
			}
		}
	default:
		return f.seedKeyed(ctx, key, newOwner, gen)
	}
	return nil
}

// seedKeyed seeds a keyed routing partition (kgset.pN / map.pN) from the
// acked ledger alone. The keyed objects expose no enumeration endpoint, so
// there is no graceful post-fence merge — every keyed handoff is seeded like
// a crash handoff, carrying exactly the acked history, which is the
// guarantee acks bought (unacked phantoms on the old owner are dropped, the
// at-least-once corner clients were already told to retry). Replays are
// idempotent (set add, monotone max) or reconciled by diff against the
// successor's current value (counter inc), so a retried handoff re-seeding
// the same partition is harmless.
func (f *frontend) seedKeyed(ctx context.Context, key string, newOwner int, gen int64) error {
	switch {
	case strings.HasPrefix(key, "kgset.p"):
		part, err := strconv.Atoi(key[len("kgset.p"):])
		if err != nil {
			return nil
		}
		var keys []string
		f.keyedMu.Lock()
		for k := range f.kgsetLedger {
			if keyedPartition(k) == part {
				keys = append(keys, k)
			}
		}
		f.keyedMu.Unlock()
		for _, k := range keys {
			if err := f.post(ctx, newOwner, gen, "/kgset/add?k="+neturl.QueryEscape(k)); err != nil {
				return err
			}
		}
	case strings.HasPrefix(key, "map.p"):
		part, err := strconv.Atoi(key[len("map.p"):])
		if err != nil {
			return nil
		}
		type ent struct {
			k string
			a kmapAck
		}
		var ents []ent
		f.keyedMu.Lock()
		for k, a := range f.kmapLedger {
			if keyedPartition(k) == part {
				ents = append(ents, ent{k, *a})
			}
		}
		f.keyedMu.Unlock()
		for _, e := range ents {
			switch e.a.kind {
			case "max":
				// Max(k, v) is idempotent; v = 0 still re-asserts existence.
				if err := f.post(ctx, newOwner, gen,
					fmt.Sprintf("/map/max?k=%s&v=%d", neturl.QueryEscape(e.k), e.a.val)); err != nil {
					return err
				}
			default:
				// Counter: the successor may hold a stale value from an
				// earlier tenure; the counter only grows, so one inc of the
				// difference reconciles it.
				cur, err := f.getMapValue(ctx, newOwner, gen, e.k)
				if err != nil {
					return err
				}
				if d := e.a.val - cur; d > 0 {
					if err := f.post(ctx, newOwner, gen,
						fmt.Sprintf("/map/inc?k=%s&d=%d", neturl.QueryEscape(e.k), d)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// getMapValue reads a map key at owner; an unknown key reads as 0 (the seed
// diff treats "never written there" and "written zero… impossible for a
// counter with acked incs" identically).
func (f *frontend) getMapValue(ctx context.Context, owner int, gen int64, key string) (int64, error) {
	body, err := f.do(ctx, owner, gen, http.MethodGet, "/map/get?k="+neturl.QueryEscape(key))
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var v struct {
		Value int64 `json:"value"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	return v.Value, nil
}

func (f *frontend) postFence(ctx context.Context, owner int, key string, gen int64) error {
	return f.post(ctx, owner, gen, fmt.Sprintf("/fence?obj=%s&gen=%d", key, gen))
}

// post issues a migration POST at owner carrying gen; any non-200 is an error.
func (f *frontend) post(ctx context.Context, owner int, gen int64, uri string) error {
	_, err := f.do(ctx, owner, gen, http.MethodPost, uri)
	return err
}

func (f *frontend) getValue(ctx context.Context, owner int, gen int64, uri string) (int64, error) {
	body, err := f.do(ctx, owner, gen, http.MethodGet, uri)
	if err != nil {
		return 0, err
	}
	var v struct {
		Value int64 `json:"value"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	return v.Value, nil
}

func (f *frontend) getElems(ctx context.Context, owner int, gen int64) ([]int64, error) {
	body, err := f.do(ctx, owner, gen, http.MethodGet, "/gset")
	if err != nil {
		return nil, err
	}
	var v struct {
		Elems []int64 `json:"elems"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return v.Elems, nil
}

// do is the one backend HTTP call: carries the ownership generation, maps
// 409 to cluster.ErrFenced (Route re-routes on it) and any other non-200 to
// a *statusError decoded from the uniform error shape.
func (f *frontend) do(ctx context.Context, owner int, gen int64, method, uri string) ([]byte, error) {
	code, body, err := f.pools[owner].roundTrip(ctx, method, uri, gen)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return body, nil
	case http.StatusConflict:
		return nil, cluster.ErrFenced
	}
	var e struct {
		Error             string `json:"error"`
		Retryable         bool   `json:"retryable"`
		RetryAfterSeconds int64  `json:"retry_after_seconds"`
	}
	json.Unmarshal(body, &e) // any other body leaves the zero shape: not retryable
	return nil, &statusError{
		code:       code,
		reason:     e.Error,
		retryable:  e.Retryable,
		retryAfter: time.Duration(e.RetryAfterSeconds) * time.Second,
	}
}

// hedgedGet is do() for reads with tail-latency hedging: if the owner has
// not answered within hedgeAfter, fire ONE duplicate at the same owner (the
// only authoritative backend — hedging elsewhere would be a consistency
// bug, not an optimization) and take the first success. Reads are
// idempotent, so the losing duplicate is harmless — but not free: the
// moment a winner is picked the shared context is canceled EAGERLY, tearing
// the loser's connection down now instead of letting it run to the client
// timeout (under hedge-heavy load those zombies are a connection-pool and
// goroutine leak). The hedge timer is stopped and drained on every exit so
// a fired-but-unread tick never lingers, and a result that is already
// queued when the timer fires suppresses the hedge — duplicating an
// answered read is pure waste.
func (f *frontend) hedgedGet(ctx context.Context, owner int, gen int64, uri string) ([]byte, error) {
	if f.cfg.hedgeAfter <= 0 {
		return f.do(ctx, owner, gen, http.MethodGet, uri)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		body []byte
		err  error
	}
	ch := make(chan res, 2) // both launches can always complete their send
	launch := func() {
		b, err := f.do(cctx, owner, gen, http.MethodGet, uri)
		ch <- res{b, err}
	}
	go launch()
	outstanding := 1
	timer := time.NewTimer(f.cfg.hedgeAfter)
	defer stopDrainTimer(timer)
	var lastErr error
	settle := func(r res) ([]byte, error, bool) {
		if r.err == nil {
			cancel() // reap the loser before returning the winner
			return r.body, nil, true
		}
		lastErr = r.err
		outstanding--
		return nil, lastErr, outstanding == 0
	}
	for {
		select {
		case r := <-ch:
			if body, err, done := settle(r); done {
				return body, err
			}
		case <-timer.C:
			select {
			case r := <-ch:
				// The answer beat the timer into the select race: settle it
				// instead of hedging a read that is already answered.
				if body, err, done := settle(r); done {
					return body, err
				}
			default:
			}
			f.hedges.Inc()
			outstanding++
			go launch()
		}
	}
}

// stopDrainTimer stops a timer and drains an already-fired tick, so an
// abandoned hedge timer can never deliver into a channel nobody reads.
func stopDrainTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// ---------------------------------------------------------------------------
// Proxy surface.

func (f *frontend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/counter/inc", func(w http.ResponseWriter, r *http.Request) {
		f.serveRouted(w, r, "counter", false,
			func() { f.counterLedger.Add(1) },
			func() { f.counterLedger.Add(-1) })
	})
	mux.HandleFunc("/counter", func(w http.ResponseWriter, r *http.Request) {
		f.serveRouted(w, r, "counter", true, func() {}, func() {})
	})
	mux.HandleFunc("/maxreg", func(w http.ResponseWriter, r *http.Request) {
		ack, unack := func() {}, func() {}
		isRead := r.Method != http.MethodPost
		if !isRead {
			// Fold the acked value into the max ledger. An unparseable v is
			// the backend's 400 to give; the ack then never runs.
			if v, err := strconv.ParseInt(r.URL.Query().Get("v"), 10, 64); err == nil {
				ack = func() { f.foldMax(v) }
			}
		}
		f.serveRouted(w, r, "maxreg", isRead, ack, unack)
	})
	mux.HandleFunc("/gset", func(w http.ResponseWriter, r *http.Request) {
		ack, unack := func() {}, func() {}
		isRead := r.Method != http.MethodPost
		if !isRead {
			if x, err := strconv.ParseInt(r.URL.Query().Get("x"), 10, 64); err == nil {
				ack = func() { f.addElem(x) }
			}
		}
		f.serveRouted(w, r, "gset", isRead, ack, unack)
	})
	mux.HandleFunc("/kgset/add", f.feKGSetAdd)
	mux.HandleFunc("/kgset/has", f.feKGSetHas)
	mux.HandleFunc("/map/inc", f.feMapInc)
	mux.HandleFunc("/map/max", f.feMapMax)
	mux.HandleFunc("/map/get", f.feMapGet)
	mux.HandleFunc("/stats", f.stats)
	mux.HandleFunc("/metrics", f.metrics)
	mux.HandleFunc("/healthz", f.healthz)
	return f.instrumented(mux)
}

// keyedRoute validates the k parameter and resolves the routing key its
// partition maps to. The frontend validates k itself (not just the backend)
// because an invalid k has no partition to route by.
func keyedRoute(w http.ResponseWriter, r *http.Request, routes *[keyPartitions]string) (key, route string, ok bool) {
	key, err := queryKey(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error(), false, 0)
		return "", "", false
	}
	return key, routes[keyedPartition(key)], true
}

func (f *frontend) feKGSetAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", false, 0)
		return
	}
	key, route, ok := keyedRoute(w, r, &kgsetRoutes)
	if !ok {
		return
	}
	// No unack: an acked set add that loses its slot to a steal still landed
	// at the backend (idempotent, monotone), same policy as the dense gset.
	f.serveRouted(w, r, route, false,
		func() { f.ackKGSetAdd(key) }, func() {})
}

func (f *frontend) feKGSetHas(w http.ResponseWriter, r *http.Request) {
	_, route, ok := keyedRoute(w, r, &kgsetRoutes)
	if !ok {
		return
	}
	f.serveRouted(w, r, route, true, func() {}, func() {})
}

func (f *frontend) feMapInc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", false, 0)
		return
	}
	key, route, ok := keyedRoute(w, r, &mapRoutes)
	if !ok {
		return
	}
	d := int64(1)
	if raw := r.URL.Query().Get("d"); raw != "" {
		v, perr := strconv.ParseInt(raw, 10, 64)
		if perr != nil || v < 1 {
			// The backend's 400 to give; with d unusable the ack never runs.
			d = 0
		} else {
			d = v
		}
	}
	ack, unack := func() {}, func() {}
	if d > 0 {
		ack = func() { f.ackMapInc(key, d) }
		unack = func() { f.ackMapInc(key, -d) }
	}
	f.serveRouted(w, r, route, false, ack, unack)
}

func (f *frontend) feMapMax(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", false, 0)
		return
	}
	key, route, ok := keyedRoute(w, r, &mapRoutes)
	if !ok {
		return
	}
	ack := func() {}
	if v, perr := strconv.ParseInt(r.URL.Query().Get("v"), 10, 64); perr == nil && v >= 0 {
		ack = func() { f.ackMapMax(key, v) }
	}
	f.serveRouted(w, r, route, false, ack, func() {})
}

func (f *frontend) feMapGet(w http.ResponseWriter, r *http.Request) {
	_, route, ok := keyedRoute(w, r, &mapRoutes)
	if !ok {
		return
	}
	f.serveRouted(w, r, route, true, func() {}, func() {})
}

func (f *frontend) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(&sw, r)
		f.reqTotal.Inc()
		if sw.code >= 400 {
			f.reqErrors.Inc()
		}
		f.reqDur.Observe(time.Since(t0).Nanoseconds())
	})
}

// serveRouted is the proxy core: lease a slot, Route through the ownership
// table (apply = the backend HTTP call), and absorb handoff churn behind a
// bounded retry loop with jittered exponential backoff that honors the
// backend's structured Retry-After hints. Guarantees to the client:
//
//   - 200 means the op executed at the object's sole owner and (for writes)
//     its ack is in the ledger every future handoff seeds from;
//   - 503 retryable means the op did NOT ack — a raced handoff may have
//     landed its effect before refusing (the at-least-once corner, carried
//     as an unacked phantom: value can run ahead of acked history, never
//     behind);
//   - a response is never assembled from two owners.
func (f *frontend) serveRouted(w http.ResponseWriter, r *http.Request, key string, isRead bool, ack, unack func()) {
	var slot int
	select {
	case slot = <-f.slots:
	case <-r.Context().Done():
		writeErr(w, http.StatusServiceUnavailable, "router slot pool exhausted", true, 1)
		return
	}
	defer func() { f.slots <- slot }()

	t := prim.RealThread(1)
	uri := r.URL.RequestURI()
	backoff := 5 * time.Millisecond
	var body []byte
	for attempt := 0; ; attempt++ {
		var sErr *statusError
		err := f.tb.Route(t, slot, key, func(owner int, gen int64) error {
			var berr error
			if isRead {
				body, berr = f.hedgedGet(r.Context(), owner, gen, uri)
			} else {
				body, berr = f.do(r.Context(), owner, gen, r.Method, uri)
			}
			return berr
		}, ack, unack)

		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
		retryable := true
		sleep := backoff
		switch {
		case errors.As(err, &sErr):
			retryable = sErr.retryable
			if sErr.retryAfter > 0 {
				sleep = sErr.retryAfter
			}
		case errors.Is(err, cluster.ErrMigrating),
			errors.Is(err, cluster.ErrNoOwner),
			errors.Is(err, cluster.ErrRacedHandoff),
			errors.Is(err, cluster.ErrRerouteLimit):
			// Handoff churn: the reconciler is (or will be) moving the
			// object; back off one beat and chase the new record.
		default:
			// Transport error to the owner — likely the failure the health
			// checker is about to notice. Retry; the record may move.
		}
		if !retryable {
			writeErr(w, sErr.code, sErr.reason, false, 0)
			return
		}
		if attempt >= f.cfg.retries {
			f.refuse(w, r, key, err, isRead)
			return
		}
		f.retriesTotal.Inc()
		if sleep > 250*time.Millisecond {
			sleep = 250 * time.Millisecond
		}
		jittered := time.Duration(rand.Int63n(int64(sleep))) + sleep/2
		f.backoffNs.Observe(int64(jittered))
		select {
		case <-time.After(jittered):
		case <-r.Context().Done():
			writeErr(w, http.StatusServiceUnavailable, "client gone during retry backoff", true, 0)
			return
		}
		backoff *= 2
	}
}

// refuse ends a request whose retry budget is spent with no reachable
// owner. Reads degrade to the acked ledger — a stale-bounded answer (every
// acked write up to the last completed fold; marked X-SL-Degraded so
// clients can tell) — when the operator allows it; writes always refuse
// retryable, because "accepted" without an owner would be an ack no seed is
// obligated to carry.
func (f *frontend) refuse(w http.ResponseWriter, r *http.Request, key string, err error, isRead bool) {
	if isRead && f.cfg.degradedReads {
		f.degraded.Inc()
		w.Header().Set("X-SL-Degraded", "true")
		switch key {
		case "counter":
			writeJSON(w, map[string]any{"value": f.counterLedger.Load()})
		case "maxreg":
			writeJSON(w, map[string]any{"value": f.maxLedger.Load()})
		case "gset":
			if raw := r.URL.Query().Get("x"); raw != "" {
				x, perr := strconv.ParseInt(raw, 10, 64)
				if perr != nil {
					writeErr(w, http.StatusBadRequest, "x must be an integer", false, 0)
					return
				}
				writeJSON(w, map[string]any{"member": f.hasElem(x)})
			} else {
				writeJSON(w, map[string]any{"elems": f.gsetSnapshot()})
			}
		default:
			// Keyed partitions: answer /kgset/has and /map/get from the
			// keyed ledgers. A key with no acked write is honestly unknown —
			// the same 404 the owner would give for a key never written.
			k := r.URL.Query().Get("k")
			switch {
			case strings.HasPrefix(key, "kgset."):
				writeJSON(w, map[string]any{"member": f.kgsetHasAcked(k)})
			case strings.HasPrefix(key, "map."):
				a, ok := f.kmapAcked(k)
				if !ok {
					writeErr(w, http.StatusNotFound, "unknown key", false, 0)
					return
				}
				writeJSON(w, map[string]any{"value": a.val, "kind": a.kind})
			}
		}
		return
	}
	retryAfter := int64(f.cfg.health.Interval / time.Second)
	if retryAfter < 1 {
		retryAfter = 1
	}
	writeErr(w, http.StatusServiceUnavailable,
		fmt.Sprintf("no reachable owner for %s: %v", key, err), true, retryAfter)
}

// frontStats is the frontend /stats document.
type frontStats struct {
	Backends        []frontBackendStat  `json:"backends"`
	Epoch           int64               `json:"epoch"`
	Objects         map[string]frontOwn `json:"objects"`
	Handoffs        int64               `json:"handoffs"`
	HandoffFailures int64               `json:"handoff_failures"`
	Retries         int64               `json:"retries"`
	Hedges          int64               `json:"hedges"`
	DegradedReads   int64               `json:"degraded_reads"`
	Reroutes        int64               `json:"reroutes"`
	Raced           int64               `json:"raced"`
	Steals          int64               `json:"steals"`
	Fences          int64               `json:"fences"`
	CounterLedger   int64               `json:"counter_ledger"`
	MaxregLedger    int64               `json:"maxreg_ledger"`
	GSetLedgerSize  int                 `json:"gset_ledger_size"`
	KGSetLedgerKeys int                 `json:"kgset_ledger_keys"`
	KMapLedgerKeys  int                 `json:"kmap_ledger_keys"`
}

type frontBackendStat struct {
	URL   string `json:"url"`
	State string `json:"state"`
}

type frontOwn struct {
	Owner   int   `json:"owner"`
	Gen     int64 `json:"gen"`
	Settled bool  `json:"settled"`
}

func (f *frontend) snapshotStats() frontStats {
	t := prim.RealThread(1)
	st := frontStats{
		Epoch:           f.health.Epoch(),
		Objects:         make(map[string]frontOwn),
		Handoffs:        f.handoffs.Load(),
		HandoffFailures: f.handoffFailures.Load(),
		Retries:         f.retriesTotal.Load(),
		Hedges:          f.hedges.Load(),
		DegradedReads:   f.degraded.Load(),
		Reroutes:        f.tb.Stats.Reroutes.Load(),
		Raced:           f.tb.Stats.Raced.Load(),
		Steals:          f.tb.Stats.Steals.Load(),
		Fences:          f.tb.Stats.Fences.Load(),
		CounterLedger:   f.counterLedger.Load(),
		MaxregLedger:    f.maxLedger.Load(),
	}
	f.gsetMu.Lock()
	st.GSetLedgerSize = len(f.gsetLedger)
	f.gsetMu.Unlock()
	f.keyedMu.Lock()
	st.KGSetLedgerKeys = len(f.kgsetLedger)
	st.KMapLedgerKeys = len(f.kmapLedger)
	f.keyedMu.Unlock()
	for i, u := range f.cfg.backends {
		st.Backends = append(st.Backends, frontBackendStat{URL: u, State: f.health.State(i).String()})
	}
	for _, key := range f.tb.Keys() {
		owner, gen, settled := f.tb.Owner(t, key)
		st.Objects[key] = frontOwn{Owner: owner, Gen: gen, Settled: settled}
	}
	return st
}

func (f *frontend) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only", false, 0)
		return
	}
	writeJSON(w, f.snapshotStats())
}

func (f *frontend) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.reg.WritePrometheus(w)
}

// healthz: the frontend is healthy while at least one backend is a
// candidate owner — with none, every write is refusing and the operator
// should know from the load balancer, not the error rate.
func (f *frontend) healthz(w http.ResponseWriter, r *http.Request) {
	if len(f.health.View().Candidates()) == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no live backend", true, 1)
		return
	}
	fmt.Fprintln(w, "ok")
}

// start brings the routing tier up: one synchronous probe sweep so the
// initial view reflects reality (a dead backend at boot must not receive
// ownership), one synchronous reconcile so every object HAS an owner before
// the first client request, then the background checker and reconciler.
func (f *frontend) start(ctx context.Context) {
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	f.health.Start(ctx)
	f.startReconciler(ctx)
}

// runFrontend is -frontend mode: the same listen/drain skeleton as
// runServe, serving the routing tier.
func runFrontend(ctx context.Context) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var backends []string
	for _, b := range splitComma(*backendsFlag) {
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return errors.New("-frontend requires -backends URL[,URL...]")
	}
	f, err := newFrontend(frontendConfig{
		backends:     backends,
		routeTimeout: *routeTimeout,
		retries:      *routeRetries,
		hedgeAfter:   *hedgeAfter,
		health: cluster.HealthConfig{
			Interval:  *healthEvery,
			DownAfter: *healthDownAfter,
			UpAfter:   *healthUpAfter,
		},
		drain:         *handoffDrain,
		degradedReads: *degradedReads,
	})
	if err != nil {
		return err
	}
	f.start(ctx)

	hs := newHTTPServer(f.handler())
	hs.Addr = *addr
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("slserve: frontend over %d backends, listening on %s\n", len(backends), *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("slserve: signal received, draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("slserve: drained")
	return nil
}

// splitComma splits a comma-separated flag value, dropping empty elements.
func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if part := s[start:i]; part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}
