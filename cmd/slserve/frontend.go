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
	"maps"
	"math/rand"
	"net"
	neturl "net/url"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
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
	probes []*backendPool // the health checker's, one idle connection each
	slots  chan int
	kick   chan struct{} // reconciler wake signal (coalesced)

	// Acked ledgers: one per routed write of the object table, by stat
	// name, folded by Route's ack closure before the drain slot is
	// released. They are the crash-handoff seed (the old owner is gone;
	// the acked history is what must survive) and the degraded-read source.
	ledgers map[string]*ledger

	reg             *obs.Registry
	reqTotal        *obs.Counter
	reqErrors       *obs.Counter
	reqDur          *obs.Histogram
	handoffs        *obs.Counter
	handoffFailures *obs.Counter
	handoffDur      *obs.Histogram
	retriesTotal    *obs.Counter
	degraded        *obs.Counter
	backoffNs       *obs.Histogram
	dials           *obs.Counter
}

func newFrontend(cfg frontendConfig) (*frontend, error) {
	cfg = cfg.withDefaults()
	w := prim.NewRealWorld()
	f := &frontend{
		cfg:     cfg,
		tb:      cluster.NewTable(w, "route", cfg.slots, -1, routeKeys...),
		slots:   make(chan int, cfg.slots),
		kick:    make(chan struct{}, 1),
		ledgers: make(map[string]*ledger),
		reg:     obs.NewRegistry(),
	}
	for _, d := range objects {
		if d.ack != ackNone {
			f.ledgers[d.stat] = &ledger{kind: d.ack, vals: make(map[args]*int64)}
		}
	}
	for i := 0; i < cfg.slots; i++ {
		f.slots <- i
	}
	f.health = cluster.NewHealth(len(cfg.backends), f.probe, cfg.health, func(int64) {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	})
	f.registerMetrics()
	probeTimeout := cfg.health.WithDefaults().Timeout
	for _, b := range cfg.backends {
		p, err := newBackendPool(b, cfg.routeTimeout, cfg.slots, f.dials)
		if err != nil {
			return nil, err
		}
		f.pools = append(f.pools, p)
		// The health probes' own pool (b parsed just above): its dials
		// stay out of slfront_backend_dials_total.
		p, _ = newBackendPool(b, probeTimeout, 1, nil)
		f.probes = append(f.probes, p)
	}
	return f, nil
}

// probe is the health checker's GET /healthz of backend i.
func (f *frontend) probe(ctx context.Context, i int) (int, error) {
	code, _, err := f.probes[i].roundTrip(ctx, methodGet, "/healthz", -1, nil)
	return code, err
}

func (f *frontend) registerMetrics() {
	f.reqTotal = f.reg.Counter("slfront_requests_total", "client requests handled by the frontend")
	f.reqErrors = f.reg.Counter("slfront_request_errors_total", "client requests answered >= 400")
	f.reqDur = f.reg.Histogram("slfront_request_duration_ns", "client request latency including retries and backoff")
	f.handoffs = f.reg.Counter("cluster_handoffs_total", "completed ownership handoffs (fence, drain, seed, install)")
	f.handoffFailures = f.reg.Counter("cluster_handoff_failures_total", "handoffs abandoned mid-flight (seed unreachable); retried by the reconciler")
	f.handoffDur = f.reg.Histogram("cluster_handoff_duration_ns", "fence-to-install latency of completed handoffs")
	f.retriesTotal = f.reg.Counter("cluster_retries_total", "proxied-request retries after retryable refusals")
	f.degraded = f.reg.Counter("cluster_degraded_reads_total", "reads served from the acked ledger while no owner was reachable")
	f.backoffNs = f.reg.Histogram("cluster_backoff_ns", "per-retry backoff sleeps (jittered, Retry-After honored)")
	f.dials = f.reg.Counter("slfront_backend_dials_total", "TCP connections dialed to backends (reused idle connections are not counted)")
	f.reg.GaugeFunc("cluster_epoch", "health view epoch (bumps on any backend state change)", f.health.Epoch)
	f.reg.CounterFunc("cluster_reroutes_total", "routing re-validations (record moved or backend fenced the generation)", f.tb.Stats.Reroutes.Load)
	f.reg.CounterFunc("cluster_raced_total", "requests refused retryable because a handoff stole their slot", f.tb.Stats.Raced.Load)
	f.reg.CounterFunc("cluster_steals_total", "drain slots stolen at handoff drain timeout", f.tb.Stats.Steals.Load)
	f.reg.CounterFunc("cluster_fences_total", "ownership records fenced: at each handoff's start, and at a reconcile pass's start for every key whose owner left the view", f.tb.Stats.Fences.Load)
	for _, stat := range slices.Sorted(maps.Keys(f.ledgers)) {
		l := f.ledgers[stat]
		f.reg.GaugeFunc("slfront_"+stat+"_ledger_entries",
			stat+" acked ledger entries: keys, elements, or 1 once a dense sum or max is acked",
			func() int64 { return int64(l.size()) })
	}
	for i := range f.cfg.backends {
		i := i
		f.reg.GaugeFunc(fmt.Sprintf("cluster_backend_%d_state", i),
			fmt.Sprintf("backend %d health (0 up, 1 degraded, 2 down)", i),
			func() int64 { return int64(f.health.State(i)) })
	}
}

// ledger is one routed write's acked history, keyed by the write's
// identity (ackKind.ident): the sum or the max of the acked values per key,
// or the set of acked elements. An entry is updated through its pointer,
// never by assigning its map key again: a map assignment stores the key it
// is handed even when the key is present, and a folded write's key is a
// view of its request's buffer.
type ledger struct {
	kind ackKind
	mu   sync.Mutex
	vals map[args]*int64
}

// fold folds one acked write in; sign -1 withdraws a sum ack whose slot a
// handoff stole. Max and set acks have no withdrawal: a write that reached
// the backend is monotone and idempotent, so keeping it seeded can only
// re-assert an effect that already landed.
func (l *ledger) fold(a args, sign int64) {
	id := l.kind.ident(a)
	l.mu.Lock()
	switch v := l.vals[id]; {
	case v == nil:
		n := a.n
		if l.kind == ackSum {
			n *= sign
		}
		id.key = strings.Clone(id.key) // the new identity outlives the request
		l.vals[id] = &n
	case l.kind == ackSum:
		*v += sign * a.n
	case a.n > *v:
		*v = a.n
	}
	l.mu.Unlock()
}

// get reads the entry a write of a would fold into.
func (l *ledger) get(a args) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v := l.vals[l.kind.ident(a)]; v != nil {
		return *v, true
	}
	return 0, false
}

func (l *ledger) value(a args) int64 {
	v, _ := l.get(a)
	return v
}

func (l *ledger) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.vals)
}

// entries snapshots the entries keep selects as replayable writes.
func (l *ledger) entries(keep func(args) bool) []args {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []args
	for id, v := range l.vals {
		if l.kind != ackSet {
			id.n = *v
		}
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
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
//
// Before any handoff starts, every key whose recorded owner left the view is
// fenced in the table. The pass hands keys off one at a time, and a backend
// restarted empty on a dead owner's address admits every generation (its
// fence floors start at 0): a key still waiting its turn would route there
// and read as empty. Fenced, it refuses retryable (or answers degraded
// reads) until its own handoff installs the successor; that handoff fences
// it once more, which Table.Fence allows.
func (f *frontend) reconcileOnce(ctx context.Context) {
	t := prim.RealThread(0)
	view := f.health.View()
	cands := view.Candidates()
	for _, key := range f.tb.Keys() {
		owner, _, _ := f.tb.Owner(t, key)
		if owner >= 0 && !slices.Contains(cands, owner) && len(cands) > 0 {
			f.tb.Fence(t, key)
		}
	}
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

// seed makes newOwner authoritative for route key at generation gen: every
// routed write's ledger entries in that route, replayed — a sum by adding
// its difference against the successor's read (which may hold a stale value
// from an earlier tenure; a sum only grows, so stale <= authoritative), a
// max by posting the value, a set by posting each element. Every replay is
// idempotent, so a retried handoff re-seeding the same route is harmless.
// A graceful handoff of a dense object first merges the old owner's
// post-fence read, phantoms included. The keyed objects expose no
// enumeration endpoint, so a keyed handoff carries exactly the acked
// history, the guarantee acks bought (unacked phantoms on the old owner are
// dropped, the at-least-once corner clients were already told to retry).
func (f *frontend) seed(ctx context.Context, route string, oldOwner, newOwner int, gen int64, graceful bool) error {
	for _, d := range objects {
		if d.ack == ackNone || !slices.Contains(d.routes, route) {
			continue
		}
		ents := f.ledgers[d.stat].entries(func(a args) bool { return d.route(a) == route })
		if graceful && !d.keyed {
			ents = f.mergeOld(ctx, d, oldOwner, gen, ents)
		}
		for _, a := range ents {
			if err := f.seedEntry(ctx, d, newOwner, gen, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeOld merges a dense object's post-fence read at the old owner into
// its ledger entries: the larger of the two for a sum or max, the union for
// a set. An unreadable old owner leaves the entries as they are.
func (f *frontend) mergeOld(ctx context.Context, d *op, owner int, gen int64, ents []args) []args {
	old, err := f.readBack(ctx, d, owner, gen, "")
	if err != nil {
		return ents
	}
	if d.ack == ackSet {
		have := make(map[args]bool, len(ents))
		for _, a := range ents {
			have[a] = true
		}
		for _, x := range old.elems {
			if a := (args{n: x}); !have[a] {
				ents = append(ents, a)
			}
		}
		return ents
	}
	if len(ents) == 0 {
		return []args{{n: old.value}}
	}
	ents[0].n = max(ents[0].n, old.value)
	return ents
}

func (f *frontend) seedEntry(ctx context.Context, d *op, owner int, gen int64, a args) error {
	if d.ack != ackSum {
		return f.post(ctx, owner, gen, d.writeURI(a))
	}
	cur, err := f.readBack(ctx, d, owner, gen, a.key)
	if err != nil {
		return err
	}
	if a.n <= cur.value {
		return nil
	}
	seeder := d
	if d.seed != "" {
		seeder = opsByPath[d.seed][0]
	}
	return f.post(ctx, owner, gen, seeder.writeURI(args{key: a.key, n: a.n - cur.value}))
}

// readBack reads d's object (key k of a keyed one) at owner through the
// descriptor's read path. A key never written there reads as zero.
func (f *frontend) readBack(ctx context.Context, d *op, owner int, gen int64, k string) (result, error) {
	uri := d.read
	if d.keyed {
		uri += "?k=" + neturl.QueryEscape(k)
	}
	body, err := f.do(ctx, owner, gen, methodGet, uri, nil)
	var se *statusError
	if errors.As(err, &se) && se.code == statusNotFound {
		return result{}, nil
	}
	if err != nil {
		return result{}, err
	}
	var v struct {
		Value int64   `json:"value"`
		Elems []int64 `json:"elems"`
	}
	err = json.Unmarshal(body, &v)
	return result{value: v.Value, elems: v.Elems}, err
}

func (f *frontend) postFence(ctx context.Context, owner int, key string, gen int64) error {
	return f.post(ctx, owner, gen, fmt.Sprintf("/fence?obj=%s&gen=%d", key, gen))
}

// post issues a migration POST at owner carrying gen; any non-200 is an error.
func (f *frontend) post(ctx context.Context, owner int, gen int64, uri string) error {
	_, err := f.do(ctx, owner, gen, methodPost, uri, nil)
	return err
}

// statusError is a non-200 backend answer decoded from the uniform error
// shape: {error, retryable, retry_after_seconds}. serveRouted retries exactly
// when the backend says to — a 503 mid-rollover is load-shedding, not
// failure — and forwards a non-retryable refusal with its own status.
type statusError struct {
	code       int
	reason     string
	retryable  bool
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d (%s)", e.code, e.reason)
}

// do is the one backend HTTP call: carries the ownership generation,
// appends a 200's body to dst, maps 409 to cluster.ErrFenced (Route
// re-routes on it) and any other non-200 to a *statusError decoded from the
// uniform error shape. On an error it returns dst as it was.
func (f *frontend) do(ctx context.Context, owner int, gen int64, method, uri string, dst []byte) ([]byte, error) {
	code, body, err := f.pools[owner].roundTrip(ctx, method, uri, gen, dst)
	if err != nil {
		return dst, err
	}
	switch code {
	case statusOK:
		return body, nil
	case statusConflict:
		return dst, cluster.ErrFenced
	}
	var e struct {
		Error             string `json:"error"`
		Retryable         bool   `json:"retryable"`
		RetryAfterSeconds int64  `json:"retry_after_seconds"`
	}
	json.Unmarshal(body[len(dst):], &e) // any other body leaves the zero shape: not retryable
	return dst, &statusError{
		code:       code,
		reason:     e.Error,
		retryable:  e.Retryable,
		retryAfter: time.Duration(e.RetryAfterSeconds) * time.Second,
	}
}

// ---------------------------------------------------------------------------
// Proxy surface.

// wire is the frontend's data-listener server.
func (f *frontend) wire() *wireServer {
	return newWireServer(f.serve, f.reqTotal, f.reqErrors, f.reqDur, nil)
}

// routes reports whether the frontend serves d: every op on a routed
// object except the backend-only writes (/counter/add, the seeding
// surface), which carry no ack.
func routes(d *op) bool {
	return d.object != "" && (d.method == methodGet || d.ack != ackNone)
}

func (f *frontend) serve(w *respWriter, r *request) {
	switch r.path {
	case "/stats":
		f.stats(w, r)
		return
	case "/metrics":
		writeMetrics(w, f.reg)
		return
	case "/healthz":
		f.healthz(w)
		return
	}
	q := r.query
	d := lookupOp(w, r, routes)
	if d == nil {
		return
	}
	// The frontend parses without a value domain (it does not know the
	// backends'), so only a syntactically bad parameter fails here. A bad
	// k has no partition to route by and is refused here; any other bad
	// parameter is the owner's 400 to give, and its write acks nothing.
	a, perr := d.parse(q, nil)
	if perr != nil && d.keyed {
		if _, kerr := queryKey(q); kerr != nil {
			writeErr(w, statusBadRequest, kerr.Error(), false, 0)
			return
		}
	}
	ack, unack := func() {}, func() {}
	if l := f.ledgers[d.stat]; l != nil && perr == nil {
		ack = func() { l.fold(a, 1) }
		if d.ack == ackSum {
			unack = func() { l.fold(a, -1) }
		}
	}
	f.serveRouted(w, r, d, a, perr, ack, unack)
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
func (f *frontend) serveRouted(w *respWriter, r *request, d *op, a args, perr error, ack, unack func()) {
	var slot int
	select {
	case slot = <-f.slots:
	case <-r.ctx.Done():
		writeErr(w, statusServiceUnavailable, "server closed while waiting for a router slot", true, 1)
		return
	}
	defer func() { f.slots <- slot }()

	t := prim.RealThread(1)
	key := d.route(a)
	const maxBackoff = 250 * time.Millisecond
	backoff := 5 * time.Millisecond
	n0 := len(w.body)
	for attempt := 0; ; attempt++ {
		// The owner's answer lands straight in w's body; a raced handoff
		// can refuse the request after it did, so a refusal cuts it off.
		err := f.tb.Route(t, slot, key, func(owner int, gen int64) (err error) {
			w.body, err = f.do(r.ctx, owner, gen, r.method, r.target, w.body)
			return err
		}, ack, unack)

		if err == nil {
			w.ctype = "application/json"
			return
		}
		w.body = w.body[:n0]
		retryable := true
		sleep := backoff
		var sErr *statusError // declared past the success return: errors.As moves it to the heap
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
			f.refuse(w, d, a, perr, key, err)
			return
		}
		f.retriesTotal.Inc()
		if sleep > maxBackoff {
			sleep = maxBackoff
		}
		jittered := time.Duration(rand.Int63n(int64(sleep))) + sleep/2
		f.backoffNs.Observe(int64(jittered))
		select {
		case <-time.After(jittered):
		case <-r.ctx.Done():
			writeErr(w, statusServiceUnavailable, "server closed during retry backoff", true, 0)
			return
		}
		// Doubling stops at the cap: unchecked, 5ms·2^41 wraps negative,
		// slips under the cap and panics rand.Int63n.
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// refuse ends a request whose retry budget is spent with no reachable
// owner. Reads degrade to the acked ledger — a stale-bounded answer (every
// acked write up to the last completed fold; marked X-SL-Degraded so
// clients can tell) — when the operator allows it; writes always refuse
// retryable, because "accepted" without an owner would be an ack no seed is
// obligated to carry.
func (f *frontend) refuse(w *respWriter, d *op, a args, perr error, key string, err error) {
	if d.method == methodGet && f.cfg.degradedReads {
		f.degraded.Inc()
		w.setHeader("X-SL-Degraded", "true")
		if perr != nil {
			writeErr(w, statusBadRequest, perr.Error(), false, 0)
			return
		}
		res, ok := f.fromLedgers(d, a)
		if !ok {
			// The same 404 the owner gives a key never written.
			writeErr(w, statusNotFound, "unknown key", false, 0)
			return
		}
		writeBody(w, d.body, res)
		return
	}
	retryAfter := int64(f.cfg.health.Interval / time.Second)
	if retryAfter < 1 {
		retryAfter = 1
	}
	startErr(w, statusServiceUnavailable, retryAfter)
	b := appendEscaped(w.body, "no reachable owner for ")
	b = appendEscaped(b, key)
	b = appendEscaped(b, ": ")
	w.body = appendEscaped(b, err.Error())
	endErr(w, true, retryAfter)
}

// mapKinds names the monotone map's key kinds by the ledger that acked them.
var mapKinds = map[ackKind]string{ackSum: "counter", ackMax: "max"}

// fromLedgers answers read d of a from the ledgers of the writes it names:
// a set's membership or element list, or the first acked value. A dense
// object with no acked write reads zero; a key with none is unknown.
func (f *frontend) fromLedgers(d *op, a args) (result, bool) {
	for _, stat := range d.degraded {
		l := f.ledgers[stat]
		switch d.body {
		case bodyElems:
			elems := []int64{}
			for _, e := range l.entries(func(args) bool { return true }) {
				elems = append(elems, e.n)
			}
			slices.Sort(elems)
			return result{elems: elems}, true
		case bodyMember:
			_, ok := l.get(a)
			return result{member: ok}, true
		}
		if v, ok := l.get(a); ok {
			return result{value: v, kind: mapKinds[l.kind]}, true
		}
	}
	return result{}, !d.keyed
}

// frontStats is the frontend /stats document.
type frontStats struct {
	Backends        []frontBackendStat  `json:"backends"`
	Epoch           int64               `json:"epoch"`
	Objects         map[string]frontOwn `json:"objects"`
	Handoffs        int64               `json:"handoffs"`
	HandoffFailures int64               `json:"handoff_failures"`
	Retries         int64               `json:"retries"`
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
		DegradedReads:   f.degraded.Load(),
		Reroutes:        f.tb.Stats.Reroutes.Load(),
		Raced:           f.tb.Stats.Raced.Load(),
		Steals:          f.tb.Stats.Steals.Load(),
		Fences:          f.tb.Stats.Fences.Load(),
		CounterLedger:   f.ledgers["counter_inc"].value(args{}),
		MaxregLedger:    f.ledgers["maxreg_write"].value(args{}),
		GSetLedgerSize:  f.ledgers["gset_add"].size(),
		KGSetLedgerKeys: f.ledgers["kgset_add"].size(),
		KMapLedgerKeys:  f.ledgers["map_inc"].size() + f.ledgers["map_max"].size(),
	}
	for i, u := range f.cfg.backends {
		st.Backends = append(st.Backends, frontBackendStat{URL: u, State: f.health.State(i).String()})
	}
	for _, key := range f.tb.Keys() {
		owner, gen, settled := f.tb.Owner(t, key)
		st.Objects[key] = frontOwn{Owner: owner, Gen: gen, Settled: settled}
	}
	return st
}

func (f *frontend) stats(w *respWriter, r *request) {
	if r.method != methodGet {
		writeErr(w, statusMethodNotAllowed, "GET only", false, 0)
		return
	}
	writeJSON(w, f.snapshotStats())
}

// healthz: the frontend is healthy while at least one backend is a
// candidate owner — with none, every write is refusing and the operator
// should know from the load balancer, not the error rate.
func (f *frontend) healthz(w *respWriter) {
	if len(f.health.View().Candidates()) == 0 {
		writeErr(w, statusServiceUnavailable, "no live backend", true, 1)
		return
	}
	writeOK(w)
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

	backends := strings.FieldsFunc(*backendsFlag, func(r rune) bool { return r == ',' })
	if len(backends) == 0 {
		return errors.New("-frontend requires -backends URL[,URL...]")
	}
	f, err := newFrontend(frontendConfig{
		backends:     backends,
		routeTimeout: *routeTimeout,
		retries:      *routeRetries,
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("slserve: frontend over %d backends, listening on %s\n", len(backends), ln.Addr())
	return serveUntil(ctx, stop, ln, f.wire(), startDebug(f.reg))
}
