// Command slserve fronts the pool + shard runtime with HTTP: a counter, a
// max register and a grow-only set — each sharded across independent
// fetch&add cores — served to arbitrary concurrent clients, with process
// identities leased per request from the lane pool. It is the
// traffic-serving proof that the paper's strongly-linearizable objects
// compose into a system: no caller manages a Thread, and every response is
// backed by a model-checked construction.
//
// Serve:
//
//	slserve [-addr :8080] [-lanes 8] [-shards 4]
//
// Endpoints (values are non-negative integers):
//
//	POST /counter/inc          increment the sharded counter
//	GET  /counter              read the counter
//	POST /maxreg?v=42          write-max
//	GET  /maxreg               read-max
//	POST /gset?x=7             add an element
//	GET  /gset?x=7             membership query
//	GET  /gset                 list elements
//	POST /snapshot?v=3         update the leased lane's snapshot component
//	GET  /snapshot             scan the full view
//	POST /msnapshot?v=3        update the multi-word snapshot's component
//	GET  /msnapshot            validated double-collect scan of the multi-word view
//	POST /clock/tick           advance the logical clock (Algorithm 1)
//	GET  /clock                read the logical clock
//	GET  /stats                lanes, shards, lease and per-endpoint op counts
//	GET  /healthz              liveness
//
// Every object endpoint is one entry of the object table (objects.go); the
// same table drives the routing frontend (frontend.go). Unknown paths get
// the uniform JSON 404, a known path with the wrong method 405.
//
// With -bound B the server declares the value domain [0, B] for max-register
// values, grow-only-set elements and snapshot components (requests outside
// it are rejected with 400), which lets each shard core — and the Theorem 2
// snapshot — pack its register into a single machine word when the encoding
// fits: the packed fast path of internal/core. The counter always runs
// packed (its capacity bound is a machine word regardless). /msnapshot is a
// second snapshot pinned to the multi-word engine's word-budget arithmetic —
// components striped across ⌈lanes/2⌉ XADD words (24-bit fields next to the
// per-word sequence fields) — so a k-XADD object is served at every lane
// count, whatever -bound says.
//
// The logical clock is Algorithm 1 over a snapshot whose components hold
// graph-node references, so the server sizes its reference bound with the
// multi-word engine's own budget arithmetic (stronglin.MaxSnapshotBoundWords
// at a word per lane): the clock is machine-word-backed at ANY lane count —
// the single packed word when the bound fits one, k XADD words otherwise,
// including past 63 lanes where earlier servers had to fall back to the wide
// register — with a lifetime operation budget of 2⁴⁸−1. Requests past the
// true budget get 503, not a panic. /stats reports each object's engine and
// word count, plus the clock's capacity.
//
// # Observability
//
// The served engines run with their validated-view caches on (the library
// default is off): each combining read and multi-word scan publishes its
// validated result keyed by the epoch/anchor it validated at, and
// steady-state reads re-validate with ONE fresh register read instead of a
// full collect. The server additionally folds concurrent same-kind
// requests into one engine operation: N simultaneous
// counter increments become a single XADD of their sum, concurrent gset adds
// one pass over the distinct elements, and concurrent GETs of an object share
// one validated view — see coalesce.go for the leader/follower mechanics and
// why both directions preserve per-request strong linearizability.
//
// GET /metrics serves the Prometheus text format from the internal/obs
// registry: request counts/errors/latency (aggregate AND a per-endpoint
// duration histogram family), per-object helping telemetry (deposits,
// adopts, adopt misses, retries, pressure raises), cache hit/miss/refresh
// counters, coalesced batch-size histograms with absorbed-request counters,
// retry-round histograms, lane-lease waits/steals, and the LIFETIME
// WATERMARKS — epoch
// announce counts against the 2⁴⁸ budget, per-word sequence fields against
// the mod-2¹⁶ wrap, clock references against the Algorithm 1 capacity. The
// watermarks are derived at scrape time from the registers themselves, so
// serving them costs the protocol paths nothing. With -debug-addr HOST:PORT
// a second listener additionally serves /metrics and net/http/pprof (the
// profiling surface stays off the public port). -scan-budget N overrides the
// helped objects' scan/read retry budgets (0 makes adoption the common case
// — the forced-adopt configuration the tests drive).
//
// Load-generator mode (drives an in-process server unless -url names a
// remote one):
//
//	slserve -attack [-clients 32] [-dur 2s] [-arrivals closed|poisson|burst]
//	        [-rate 5000] [-burst-size 32] [-mix default|read-heavy|write-storm|storm]
//	        [-lanes 8] [-shards 4] [-bound B] [-url http://host:port]
//
// It reports JSON on stdout: per-endpoint counts, error count, throughput,
// and latency percentiles computed from the shared obs histogram (identical
// machinery in every mode, so reports are comparable across loop modes; the
// report labels its loop mode and arrival process).
//
// -arrivals closed is the classic closed loop: each client fires its next
// request when the previous response lands, so offered load adapts to the
// server and queueing is INVISIBLE in the latencies. -arrivals poisson is an
// OPEN LOOP: request start times are pre-drawn from a Poisson process of
// -rate requests/sec, and each request's latency is measured from its
// INTENDED send time — not from when a worker got around to sending it — so
// scheduler backlog (coordinated omission) counts against the server,
// and overload shows up as diverging tail percentiles instead of silently
// throttled throughput. -arrivals burst sends the same offered rate in
// trains of -burst-size back-to-back requests. The workload mixes: default
// (50/50 read/write across the five constant-cost objects), read-heavy (90%
// reads), write-storm (90% writes), and storm — an adversarial starvation
// shape like sim.AnchorStormPolicy: updates hammer the multi-word snapshot
// while scans try to validate against them, driving the helping counters
// under real traffic. The clock is still excluded: its per-operation cost is
// Algorithm 1's operation-graph walk, which grows with history, so the
// generator would measure the graph, not the serving stack.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	neturl "net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stronglin"
	"stronglin/internal/obs"
)

var (
	addr       = flag.String("addr", ":8080", "listen address (serve mode)")
	debugAddr  = flag.String("debug-addr", "", "extra listener serving /metrics and net/http/pprof (serve mode; empty = none)")
	lanes      = flag.Int("lanes", 8, "process identities in the lane pool")
	shards     = flag.Int("shards", 4, "fetch&add cores per sharded object (<= lanes)")
	bound      = flag.Int64("bound", 0, "value domain [0,bound] for maxreg values, gset elements and snapshot components; packs the shard registers and the snapshot into machine words when the encodings fit (0 = unbounded wide registers)")
	scanBudget = flag.Int("scan-budget", -1, "scan/read retry budget of the helped objects before they solicit help (-1 = library default; 0 makes adoption the common case)")
	attack     = flag.Bool("attack", false, "run the load generator instead of serving")
	clients    = flag.Int("clients", 32, "concurrent load-generator workers (attack mode)")
	dur        = flag.Duration("dur", 2*time.Second, "measurement duration (attack mode)")
	url        = flag.String("url", "", "attack a remote slserve instead of an in-process one")
	arrivals   = flag.String("arrivals", "closed", "attack arrival process: closed (next request when the last returns), poisson (open loop at -rate), burst (open loop, -burst-size trains)")
	rate       = flag.Float64("rate", 5000, "open-loop offered load in requests/sec (poisson and burst arrivals)")
	burstSize  = flag.Int("burst-size", 32, "requests per train (burst arrivals)")
	mixName    = flag.String("mix", "default", "attack workload mix: default, read-heavy, write-storm, storm")
	attackSeed = flag.Int64("attack-seed", 1, "seed for the open-loop arrival schedule")

	// Watermark-triggered live re-base (see internal/migrate): the renewable
	// budgets — the snapshots' mod-2^16 sequence fields and the sharded
	// objects' 2^48 epoch announce counts — are watched against warn/crit
	// fractions, rolled over live past warn, and surfaced on /healthz and the
	// slserve_*_watermark_state gauges.
	watermarkWarn   = flag.Float64("watermark-warn", 0.5, "budget fraction at which a live re-base is due (watermark state 1, /healthz 429)")
	watermarkCrit   = flag.Float64("watermark-crit", 0.9, "budget fraction at which the budget is nearly spent (watermark state 2, /healthz 503)")
	watermarkBudget = flag.Int64("watermark-budget", 0, "override the watched budget domains (0 = the true protocol budgets); the soak harness forces a tiny budget so rollovers fire every few hundred operations instead of every few trillion")
	rollover        = flag.Bool("rollover", true, "run the watermark controller: re-base any engine live when it crosses -watermark-warn")
	rolloverEvery   = flag.Duration("rollover-interval", time.Second, "watermark controller poll interval")
	drainTimeout    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline after SIGTERM/SIGINT")
)

func main() {
	flag.Parse()
	if *lanes < 1 || *shards < 1 || *shards > *lanes {
		fmt.Fprintf(os.Stderr, "slserve: need 1 <= -shards <= -lanes, got -lanes %d -shards %d\n", *lanes, *shards)
		os.Exit(2)
	}
	if *bound < 0 {
		fmt.Fprintf(os.Stderr, "slserve: -bound must be non-negative, got %d\n", *bound)
		os.Exit(2)
	}
	if !(*watermarkWarn > 0 && *watermarkWarn <= *watermarkCrit && *watermarkCrit < 1) {
		fmt.Fprintf(os.Stderr, "slserve: need 0 < -watermark-warn <= -watermark-crit < 1, got %v and %v\n", *watermarkWarn, *watermarkCrit)
		os.Exit(2)
	}
	if *attack {
		if err := runAttack(); err != nil {
			fmt.Fprintln(os.Stderr, "slserve:", err)
			os.Exit(1)
		}
		return
	}
	if *frontendMode {
		if err := runFrontend(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "slserve:", err)
			os.Exit(1)
		}
		return
	}
	if err := runServe(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "slserve:", err)
		os.Exit(1)
	}
}

// runServe is serve mode: listen until the context is cancelled or a
// SIGTERM/SIGINT lands, then drain and exit cleanly — stop accepting, let
// every in-flight request (coalescing leaders and the followers parked on
// their batches included) finish inside -drain-timeout, and return nil so
// the process exits 0. Orchestrators read that exit as a clean handoff;
// anything else (a listener error, an overrun drain) returns the error and
// exits 1.
func runServe(ctx context.Context) error {
	srv := newServer(*lanes, *shards, *bound)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("slserve: %d lanes, %d shards, listening on %s\n", *lanes, *shards, ln.Addr())
	return serveLoop(ctx, srv, ln)
}

// serveLoop is runServe minus construction and binding, split out so the
// lifecycle tests can race signals against a server and listener they hold:
// serve on ln until ctx cancels or a signal lands, then drain.
func serveLoop(ctx context.Context, srv *server, ln net.Listener) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *rollover {
		srv.startRollover(ctx, *rolloverEvery)
	}
	var dbg *http.Server
	if *debugAddr != "" {
		dbg = newHTTPServer(srv.debugHandler())
		dbg.Addr = *debugAddr
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "slserve: debug listener:", err)
			}
		}()
		fmt.Printf("slserve: debug listener (metrics + pprof) on %s\n", *debugAddr)
	}
	// Close the coalescing funnels before the HTTP drain: requests that are
	// already in flight when Shutdown stops accepting must not park behind a
	// slow batch as its next leader, or the drain deadline kills them.
	return serveUntil(ctx, stop, ln, srv.drainCoalescers, newHTTPServer(srv.handler()), dbg)
}

// serveUntil is both tiers' listen/drain skeleton: serve hs on ln until
// ctx (a signal context, stop its cancel) ends, then run beforeDrain and
// gracefully shut hs and every extra server down within -drain-timeout.
func serveUntil(ctx context.Context, stop func(), ln net.Listener, beforeDrain func(), hs *http.Server, extra ...*http.Server) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal during the drain kills the process the hard way
	fmt.Println("slserve: signal received, draining")
	beforeDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	for _, srv := range append([]*http.Server{hs}, extra...) {
		if srv == nil {
			continue
		}
		if err := srv.Shutdown(dctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	fmt.Println("slserve: drained")
	return nil
}

// readHeaderTimeout bounds how long a connection may take to deliver a
// request's headers, so a client that dribbles a partial request line cannot
// hold a connection and its goroutine forever. It is the only timeout the
// servers set: a ReadTimeout or IdleTimeout would close the idle keep-alive
// connections that load generators and the frontend's backend pool reuse.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer is every slserve listener's server: backend, frontend,
// -debug-addr and the attack mode's in-process target.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// counterBound is the declared capacity of the served counters: any bound up
// to 2^62-1 packs the counter cores into machine words, so the counter is
// always packed regardless of -bound.
const counterBound = int64(1) << 40

// fenceGate is one routed object's backend-side ownership fence. A routing
// tier moving the object away POSTs /fence to raise the floor; every
// request the tier routes carries its ownership generation in X-SL-Gen, and
// a generation below the floor is refused 409 — the request raced a handoff
// and must re-route. The read-write lock is what makes the cluster games'
// one-atomic-step model of "fence check + apply" honest in real HTTP: a
// request's check and its engine operation share the read side, and raise
// takes the write side, so when /fence returns no straggler of a retired
// generation can still be mid-apply (its effect is complete and visible to
// the migrator's post-fence value read, or it never starts and gets 409).
type fenceGate struct {
	mu    sync.RWMutex
	floor int64
}

// admit runs apply iff gen clears the floor, holding the gate against a
// concurrent raise for the duration of apply.
func (g *fenceGate) admit(gen int64, apply func()) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if gen < g.floor {
		return false
	}
	apply()
	return true
}

// raise lifts the floor to gen (monotone) and returns the resulting floor.
// It blocks until every admitted apply in flight has finished.
func (g *fenceGate) raise(gen int64) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen > g.floor {
		g.floor = gen
	}
	return g.floor
}

// Floor reads the current floor.
func (g *fenceGate) Floor() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.floor
}

// reqGen extracts the request's ownership generation. Requests without the
// header (direct single-node clients) are never fenced.
func reqGen(r *http.Request) (int64, error) {
	raw := r.Header.Get("X-SL-Gen")
	if raw == "" {
		return int64(^uint64(0) >> 1), nil
	}
	g, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || g < 0 {
		return 0, fmt.Errorf("X-SL-Gen must be a non-negative integer, got %q", raw)
	}
	return g, nil
}

// server owns one world: the lane pool, the sharded objects, the Theorem 2
// snapshot, the Algorithm 1 logical clock, per-endpoint op counters, and the
// obs registry every metric family is published through.
type server struct {
	lanes, shards int
	maxValue      int64 // inclusive cap on client-supplied values
	pool          *stronglin.Pool
	counter       *stronglin.ShardedCounter
	maxreg        *stronglin.ShardedMaxRegister
	gset          *stronglin.ShardedGSet
	snap          *stronglin.Snapshot
	msnap         *stronglin.Snapshot // multi-word k-XADD engine, any lane count
	clock         *stronglin.LogicalClock
	kgset         *stronglin.KeyedGSet   // sparse keyed universe: hashed grow-only set
	kmap          *stronglin.MonotoneMap // sparse keyed universe: per-key counters / max registers

	// reg is this server's metric registry (per-server, not the package
	// default: tests and the attack generator build several servers per
	// process). reqTotal/reqErrors/reqDur are fed by the handler middleware;
	// clockRejects counts 503s from the spent Algorithm 1 budget; everything
	// else is scrape-time closures over telemetry the engines already keep.
	reg          *obs.Registry
	reqTotal     *obs.Counter
	reqErrors    *obs.Counter
	reqDur       *obs.Histogram
	clockRejects *obs.Counter

	// rebaser watches the renewable budgets (seq watermarks, epoch announce
	// counts) and performs the live re-bases; targetNames mirrors its target
	// order for the per-engine watermark-state gauges and /healthz.
	rebaser     *stronglin.Rebaser
	targetNames []string

	// endpointDur is the per-endpoint request-duration histogram family,
	// keyed by URL path; built once in registerMetrics, read-only after.
	endpointDur map[string]*obs.Histogram

	// The object table's per-server state, built once in registerMetrics
	// and read-only after: one coalescer per coalesced op and one op
	// counter per /stats key (both by stat name), and one ownership fence
	// per route key. A routing tier moving an object away raises its
	// fence (the cluster handoff protocol's 409 surface); fenceRejects
	// counts requests refused below a floor. The keyed universe fences per
	// key partition — the routing tier moves partitions, not single keys.
	co           map[string]*coalescer
	ops          map[string]*atomic.Int64
	fences       map[string]*fenceGate
	fenceRejects atomic.Int64
}

// fenced answers the 409 a request below an object's fence floor gets: the
// ownership generation it carries is retired, the routing tier must re-read
// the ownership record and re-route. Always retryable — the object lives
// on, just elsewhere.
func (s *server) fenced(w http.ResponseWriter) {
	s.fenceRejects.Add(1)
	writeErr(w, http.StatusConflict, "generation fenced: object ownership moved", true, 0)
}

// snapWords is the word budget the server grants its dedicated multi-word
// snapshot: ⌈lanes/2⌉ words, i.e. at least a 24-bit field per lane next to
// each word's sequence field — comfortably above the request value cap.
// Scans cost at most 2·⌈lanes/2⌉+1 XADD(0) reads per validation round.
func snapWords(lanes int) int {
	return (lanes + 1) / 2
}

// clockCapacity is the largest snapshot bound the multi-word engine hosts
// at a word per lane (stronglin.MaxSnapshotBoundWords, the engine's own
// budget arithmetic). The clock's snapshot components hold graph-node
// references allocated densely from 1, so this bound is exactly the number
// of clock operations the server can execute before answering 503 — 2⁴⁸−1
// at any lane count past one (full-payload 48-bit reference fields),
// including past 63 lanes, where the single packed word of earlier servers
// could not host the clock at all and it fell back to wide. The engine
// stays machine-word end to end: the constructor picks the single packed
// word when the bound fits one and the multi-word engine otherwise.
func clockCapacity(lanes int) int64 {
	return stronglin.MaxSnapshotBoundWords(lanes, lanes)
}

// newServer builds the serving stack. bound > 0 declares the value domain of
// the max register and grow-only set (packing their shard cores when the
// per-shard encoding fits); bound = 0 keeps them wide with the default cap.
func newServer(lanes, shards int, bound int64) *server {
	return newServerClock(lanes, shards, bound, clockCapacity(lanes))
}

// newServerClock is newServer with an explicit clock reference budget; tests
// use small budgets to drive the 503-past-true-budget path without 2³¹
// requests.
func newServerClock(lanes, shards int, bound, clockBudget int64) *server {
	return newServerCfg(lanes, shards, bound, clockBudget, *scanBudget, true)
}

// newServerCfg is the full constructor: scanBudget >= 0 overrides the helped
// objects' scan/read retry budgets (0 = solicit help after the first failed
// round, the forced-adopt configuration), scanBudget < 0 keeps the library
// defaults; cached enables the validated-view caches (always true in
// production — tests that must see every scan run a full collect, like the
// forced-adopt storm, pass false). Every object is built with its retry-round
// histogram attached, and the registry closes over the engines' own telemetry
// for everything else, so the instrumentation adds no hot-path steps of its
// own.
func newServerCfg(lanes, shards int, bound, clockBudget int64, scanBudget int, cached bool) *server {
	w := stronglin.NewWorld()
	reg := obs.NewRegistry()
	maxValue := int64(defaultMaxValue)
	var valueOpts []stronglin.ShardOption
	var snapOpts []stronglin.SnapshotOption
	if bound > 0 {
		// The request cap never rises above the default: a bound too large to
		// pack leaves the shards on wide registers, where a single huge value
		// is a huge unary/bitmap allocation — exactly what the cap exists to
		// stop. (Packing bounds are < 63, far below the default cap.)
		if bound < maxValue {
			maxValue = bound
		}
		valueOpts = append(valueOpts, stronglin.WithBound(bound))
		snapOpts = append(snapOpts, stronglin.WithSnapshotBound(bound))
	}
	var msnapOpts []stronglin.SnapshotOption
	if scanBudget >= 0 {
		valueOpts = append(valueOpts, stronglin.WithReadRetryBudget(scanBudget))
		snapOpts = append(snapOpts, stronglin.WithScanRetryBudget(scanBudget))
		msnapOpts = append(msnapOpts, stronglin.WithScanRetryBudget(scanBudget))
	}
	// Retry-round histograms plus cache-hit counters, one set per helped
	// object: contended completions and anchor-match hits only, so attaching
	// them leaves the uncached fast paths untouched.
	shardObs := func(name string) stronglin.ShardOption {
		return stronglin.WithShardObs(stronglin.ShardMetrics{
			ReadRounds: reg.Histogram("slserve_"+name+"_read_rounds", "failed validation rounds per contended "+name+" combining read"),
			CacheHits:  reg.Counter("slserve_"+name+"_cache_hits_total", name+" combining reads served from the epoch-validated combine cache"),
		})
	}
	// The server is a deployment, so the validated-view caches are on: each
	// combining read / multi-word scan publishes its validated result keyed
	// by the epoch/anchor it validated at, and steady-state reads re-validate
	// with one fresh register read instead of a full collect. (The library
	// default is off; the cached configurations carry their own model checks.)
	valueOpts = append(valueOpts, stronglin.WithReadCache(cached))
	counterOpts := []stronglin.ShardOption{stronglin.WithBound(counterBound), stronglin.WithReadCache(cached), shardObs("counter")}
	if scanBudget >= 0 {
		counterOpts = append(counterOpts, stronglin.WithReadRetryBudget(scanBudget))
	}
	snapOpts = append(snapOpts, stronglin.WithSnapshotObs(stronglin.SnapMetrics{
		ScanRounds: reg.Histogram("slserve_snapshot_scan_rounds", "failed validation rounds per contended snapshot scan"),
	}))
	// Both snapshots opt into live re-base. On a multi-word engine the option
	// arms the generation chain; on the single-register engines it is a no-op
	// (their substrates have no sequence fields to exhaust), and the rebaser
	// below only watches engines that report RebaseEnabled.
	snapOpts = append(snapOpts, stronglin.WithLiveRebase(true))
	msnapOpts = append(msnapOpts, stronglin.WithLiveRebase(true))
	msnapOpts = append(msnapOpts, stronglin.WithViewCache(cached), stronglin.WithSnapshotObs(stronglin.SnapMetrics{
		ScanRounds: reg.Histogram("slserve_msnapshot_scan_rounds", "failed validation rounds per contended multi-word snapshot scan"),
		CacheHits:  reg.Counter("slserve_msnapshot_cache_hits_total", "multi-word snapshot scans served from the anchor-revalidated view cache"),
	}))
	var clockOpts []stronglin.SnapshotOption
	if clockBudget > 0 {
		clockOpts = append(clockOpts, stronglin.WithSnapshotBound(clockBudget))
	}
	// The dedicated multi-word snapshot always declares the word-budget
	// bound, so it is machine-word-backed at every lane count (k XADD words
	// past 2 lanes) — the engine the -attack mix drives alongside the
	// -bound-dependent /snapshot.
	s := &server{
		lanes:    lanes,
		shards:   shards,
		maxValue: maxValue,
		pool:     stronglin.NewPool(w, lanes),
		counter:  stronglin.NewShardedCounter(w, lanes, shards, counterOpts...),
		maxreg:   stronglin.NewShardedMaxRegister(w, lanes, shards, append(valueOpts, shardObs("maxreg"))...),
		gset:     stronglin.NewShardedGSet(w, lanes, shards, append(valueOpts, shardObs("gset"))...),
		snap:     stronglin.NewSnapshot(w, lanes, snapOpts...),
		msnap:    stronglin.NewMultiwordSnapshot(w, lanes, snapWords(lanes), msnapOpts...),
		clock:    stronglin.NewLogicalClock(w, lanes, clockOpts...),
		kgset:    stronglin.NewKeyedGSet(w, lanes),
		kmap:     stronglin.NewMonotoneMap(w, lanes),
		reg:      reg,
	}
	// The rebaser watches every renewable budget the server holds. The clock
	// is deliberately absent: Algorithm 1's reference budget is terminal (the
	// operation graph is the history), so it degrades to 503 instead.
	targets := []stronglin.RebaseTarget{
		stronglin.CounterRebaseTarget("counter", s.counter),
		stronglin.MaxRegisterRebaseTarget("maxreg", s.maxreg),
		stronglin.GSetRebaseTarget("gset", s.gset),
	}
	// The snapshots join only when they landed on the multi-word engine
	// (small lane counts pick the packed word, whose scans have no sequence
	// fields to renew — nothing to watch).
	if s.msnap.RebaseEnabled() {
		targets = append(targets, stronglin.SnapshotRebaseTarget("msnapshot", s.msnap))
	}
	if s.snap.RebaseEnabled() {
		targets = append(targets, stronglin.SnapshotRebaseTarget("snapshot", s.snap))
	}
	if *watermarkBudget > 0 {
		for i := range targets {
			targets[i] = targets[i].WithBudget(*watermarkBudget)
		}
	}
	reb, err := stronglin.NewRebaser(stronglin.RebaseThresholds{Warn: *watermarkWarn, Crit: *watermarkCrit}, targets...)
	if err != nil {
		panic("slserve: " + err.Error()) // main validated the flags; unreachable
	}
	s.rebaser = reb
	s.targetNames = reb.Targets()
	s.registerMetrics()
	return s
}

// startRollover launches the watermark controller: every interval it takes
// one Rebaser step, re-basing any engine at or past -watermark-warn. The
// step leases a lane like any client operation; the controller stops with
// the context (the graceful-shutdown path cancels it before the drain).
func (s *server) startRollover(ctx context.Context, every time.Duration) {
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				s.pool.With(func(t stronglin.Thread) { s.rebaser.Step(t) })
			}
		}
	}()
}

// registerMetrics publishes every metric family. The request instruments are
// allocated here and fed by the handler middleware; all protocol telemetry is
// scrape-time closures over counters the engines keep anyway (HelpStats, the
// pool's lease counters) or over the registers themselves (the lifetime
// watermarks), so scrapes read — never tax — the hot paths. The register
// reads use Thread(0) without a lease: the real world's fetch&add ignores the
// thread for an XADD(0), and /metrics must answer even with every lane out.
func (s *server) registerMetrics() {
	s.reqTotal = s.reg.Counter("slserve_requests_total", "HTTP requests served (all endpoints)")
	s.reqErrors = s.reg.Counter("slserve_request_errors_total", "HTTP responses with status >= 400")
	s.reqDur = s.reg.Histogram("slserve_request_duration_ns", "request handling latency in nanoseconds")
	s.clockRejects = s.reg.Counter("slserve_clock_capacity_rejections_total", "clock requests answered 503: the Algorithm 1 reference budget is spent")

	// Helping telemetry per combining-read object: the protocol-health block
	// (see internal/obs.HelpStats for what each field counts).
	help := func(name string, fn func() stronglin.HelpStats) {
		s.reg.CounterFunc("slserve_"+name+"_help_deposits_total", name+" helper views deposited by writers under raised pressure", func() int64 { return fn().Deposits })
		s.reg.CounterFunc("slserve_"+name+"_help_adopts_total", name+" reads/scans completed by adopting a helper deposit", func() int64 { return fn().Adopts })
		s.reg.CounterFunc("slserve_"+name+"_help_adopt_misses_total", name+" adoption attempts whose closing witness failed", func() int64 { return fn().AdoptMisses })
		s.reg.CounterFunc("slserve_"+name+"_retries_total", name+" failed validation rounds across all reads/scans", func() int64 { return fn().Retries })
		s.reg.CounterFunc("slserve_"+name+"_pressure_raises_total", name+" reads/scans that exhausted their retry budget and solicited help", func() int64 { return fn().Raises })
	}
	help("counter", s.counter.HelpStats)
	help("maxreg", s.maxreg.HelpStats)
	help("gset", s.gset.HelpStats)
	help("snapshot", s.snap.HelpStats)
	help("msnapshot", s.msnap.HelpStats)

	// View-/combine-cache telemetry per cached object. Hits are real counters
	// wired into the engines at construction (the only instrument on the hit
	// path); misses and refreshes bracket full collects, so the engines count
	// them anyway and the registry reads them at scrape time.
	cache := func(name string, fn func() stronglin.CacheStats) {
		s.reg.CounterFunc("slserve_"+name+"_cache_misses_total", name+" reads/scans whose cache probe found no valid entry and fell back to a full collect", func() int64 { return fn().Misses })
		s.reg.CounterFunc("slserve_"+name+"_cache_refreshes_total", name+" validated collects that republished the cache entry", func() int64 { return fn().Refreshes })
	}
	cache("counter", s.counter.CacheStats)
	cache("maxreg", s.maxreg.CacheStats)
	cache("gset", s.gset.CacheStats)
	cache("msnapshot", s.msnap.CacheStats)

	// Per-endpoint request-duration histogram family: the same observation
	// the aggregate slserve_request_duration_ns gets, split by URL path so a
	// slow endpoint (a contended scan, a clock walk) is visible on its own.
	// Coalescing telemetry per coalesced op: batch sizes (one observation
	// per applied batch) and the requests absorbed into another request's
	// batch — the engine operations that never happened.
	s.endpointDur = make(map[string]*obs.Histogram)
	s.co = make(map[string]*coalescer)
	s.ops = make(map[string]*atomic.Int64)
	endpoint := func(path string) {
		if s.endpointDur[path] == nil {
			name := strings.ReplaceAll(path[1:], "/", "_")
			s.endpointDur[path] = s.reg.Histogram("slserve_endpoint_"+name+"_duration_ns", path+" request handling latency in nanoseconds")
		}
	}
	for _, d := range objects {
		endpoint(d.path)
		if s.ops[d.stat] == nil {
			s.ops[d.stat] = new(atomic.Int64)
		}
		if d.co != coNone {
			s.co[d.stat] = &coalescer{
				size:     s.reg.Histogram("slserve_coalesce_"+d.stat+"_batch_size", d.stat+" requests folded per coalesced batch"),
				absorbed: s.reg.Counter("slserve_coalesce_"+d.stat+"_absorbed_total", d.stat+" requests absorbed into another request's batch (engine operations saved)"),
			}
		}
	}
	endpoint("/stats")
	endpoint("/metrics")

	// Lifetime watermarks: where each bounded budget currently stands. These
	// are the sensors the live-migration plans trigger on (ROADMAP).
	t0 := stronglin.Thread(0)
	s.reg.GaugeFunc("slserve_counter_epoch_announces", "counter epoch announce count against its 2^48 lifetime budget", func() int64 { return s.counter.EpochAnnounces(t0) })
	s.reg.GaugeFunc("slserve_maxreg_epoch_announces", "maxreg epoch announce count against its 2^48 lifetime budget", func() int64 { return s.maxreg.EpochAnnounces(t0) })
	s.reg.GaugeFunc("slserve_gset_epoch_announces", "gset epoch announce count against its 2^48 lifetime budget", func() int64 { return s.gset.EpochAnnounces(t0) })
	s.reg.GaugeFunc("slserve_counter_pressure_raised", "counter readers currently holding pressure raised", func() int64 { return s.counter.PressureRaised(t0) })
	s.reg.GaugeFunc("slserve_maxreg_pressure_raised", "maxreg readers currently holding pressure raised", func() int64 { return s.maxreg.PressureRaised(t0) })
	s.reg.GaugeFunc("slserve_gset_pressure_raised", "gset readers currently holding pressure raised", func() int64 { return s.gset.PressureRaised(t0) })
	s.reg.GaugeFunc("slserve_snapshot_seq_watermark", "highest per-word sequence field of the snapshot against the mod-2^16 wrap (0 on non-multiword engines)", func() int64 { return s.snap.SeqWatermark(t0) })
	s.reg.GaugeFunc("slserve_msnapshot_seq_watermark", "highest per-word sequence field of the multi-word snapshot against the mod-2^16 wrap", func() int64 { return s.msnap.SeqWatermark(t0) })
	s.reg.GaugeFunc("slserve_clock_capacity", "Algorithm 1 reference capacity of the logical clock", s.clock.Capacity)
	s.reg.GaugeFunc("slserve_clock_used", "Algorithm 1 references consumed by the logical clock", s.clock.Used)

	// Watermark states and rollover telemetry: one state gauge per watched
	// engine (0 ok, 1 warn = re-base due, 2 crit), the worst state (what
	// /healthz answers from), completed rollovers, and each engine's current
	// generation — which increments are the rollovers actually landing.
	for i, name := range s.targetNames {
		i := i
		s.reg.GaugeFunc("slserve_"+name+"_watermark_state", name+" budget watermark state: 0 ok, 1 warn (re-base due), 2 crit", func() int64 { return int64(s.rebaser.StateOf(t0, i)) })
	}
	s.reg.GaugeFunc("slserve_watermark_state", "worst watermark state across the watched engines (what /healthz degrades on)", func() int64 { return int64(s.rebaser.State(t0)) })
	s.reg.CounterFunc("slserve_rollovers_total", "live re-bases completed by the watermark controller", func() int64 { return s.rebaser.Stats().Rollovers })
	s.reg.CounterFunc("slserve_rollovers_refused_total", "shard rollovers declined below their announce floor (an external racer, never the controller)", func() int64 { return s.rebaser.Stats().Refused })
	s.reg.GaugeFunc("slserve_counter_epoch_generation", "counter epoch rollover generation", func() int64 { return s.counter.EpochGeneration(t0) })
	s.reg.GaugeFunc("slserve_maxreg_epoch_generation", "maxreg epoch rollover generation", func() int64 { return s.maxreg.EpochGeneration(t0) })
	s.reg.GaugeFunc("slserve_gset_epoch_generation", "gset epoch rollover generation", func() int64 { return s.gset.EpochGeneration(t0) })
	s.reg.GaugeFunc("slserve_msnapshot_generation", "multi-word snapshot re-base generation (completed cutovers)", func() int64 { return s.msnap.Generation(t0) })

	// Ownership-fence telemetry: the per-object fence floors a routing tier
	// has raised here and the requests refused below one (each refusal is a
	// raced handoff the cluster layer re-routed).
	s.fences = make(map[string]*fenceGate)
	for _, key := range routeKeys {
		g := new(fenceGate)
		s.fences[key] = g
		s.reg.GaugeFunc("slserve_"+strings.ReplaceAll(key, ".", "_")+"_fence_floor", key+" ownership fence floor (0 = never fenced)", g.Floor)
	}
	s.reg.CounterFunc("slserve_fence_rejects_total", "requests refused 409 below an ownership fence floor", s.fenceRejects.Load)

	// Keyed-universe telemetry: table shape (keys resident, bucket count and
	// generation — which rehash cutovers have landed), growth, and the
	// validated reads' witness costs. Scrape-time closures over the stats
	// snapshots the engines keep anyway.
	s.reg.GaugeFunc("slserve_kgset_keys", "distinct keys resident in the keyed gset", func() int64 { return int64(s.kgset.Stats(t0).Keys) })
	s.reg.GaugeFunc("slserve_kgset_buckets", "keyed gset hash bucket count", func() int64 { return int64(s.kgset.Stats(t0).Buckets) })
	s.reg.GaugeFunc("slserve_kgset_generation", "keyed gset table generation (completed rehash cutovers)", func() int64 { return s.kgset.Stats(t0).Generation })
	s.reg.CounterFunc("slserve_kgset_rehashes_total", "keyed gset bucket-table rehashes completed", func() int64 { return s.kgset.Stats(t0).Rehashes })
	s.reg.CounterFunc("slserve_kgset_read_retries_total", "keyed gset membership reads whose closing witness failed a round", func() int64 { return s.kgset.Stats(t0).ReadRetries })
	s.reg.GaugeFunc("slserve_kgset_epoch_announces", "keyed gset per-bucket epoch announces, summed", func() int64 { return s.kgset.Stats(t0).EpochAnnounces })
	s.reg.GaugeFunc("slserve_map_keys", "distinct keys resident in the monotone map", func() int64 { return int64(s.kmap.Stats(t0).Keys) })
	s.reg.GaugeFunc("slserve_map_buckets", "monotone map hash bucket count", func() int64 { return int64(s.kmap.Stats(t0).Buckets) })
	s.reg.GaugeFunc("slserve_map_generation", "monotone map table generation (completed rehash cutovers)", func() int64 { return s.kmap.Stats(t0).Generation })
	s.reg.CounterFunc("slserve_map_rehashes_total", "monotone map bucket-table rehashes completed", func() int64 { return s.kmap.Stats(t0).Rehashes })
	s.reg.CounterFunc("slserve_map_read_retries_total", "monotone map gets whose closing witness failed a round", func() int64 { return s.kmap.Stats(t0).ReadRetries })
	s.reg.GaugeFunc("slserve_map_epoch_announces", "monotone map per-bucket epoch announces, summed", func() int64 { return s.kmap.Stats(t0).EpochAnnounces })

	// Lane-lease pressure: sizing signals for the pool.
	s.reg.CounterFunc("slserve_lease_acquires_total", "lane leases granted", func() int64 { return s.pool.Acquires(t0) })
	s.reg.CounterFunc("slserve_lease_waits_total", "lease acquisitions that found every lane out and parked", s.pool.Waits)
	s.reg.CounterFunc("slserve_lease_steals_total", "lane claims that won a probe past their seeded lane", s.pool.Steals)
	s.reg.GaugeFunc("slserve_lanes_in_use", "lanes currently leased", func() int64 { return int64(s.pool.InUse()) })
}

func (s *server) handler() http.Handler {
	return instrumented(s.serve, s.reqTotal, s.reqErrors, s.reqDur, s.endpointDur)
}

// serve dispatches one request: the control endpoints, then the object
// table.
func (s *server) serve(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/stats":
		s.stats(w, r)
		return
	case "/metrics":
		s.metrics(w, r)
		return
	case "/healthz":
		s.healthz(w, r)
		return
	case "/fence":
		s.fenceHandler(w, r)
		return
	}
	q := r.URL.Query()
	d := lookupOp(w, r, q, func(*op) bool { return true })
	if d == nil {
		return
	}
	s.serveOp(w, r, q, d)
}

// serveOp is every object's backend handler: X-SL-Gen (routed objects
// only) → parse → fence gate → engine step (coalesced or direct) → typed
// error mapping → op count → body. The fence gate holds its read side over
// the engine step, so a concurrent /fence raise waits for it.
func (s *server) serveOp(w http.ResponseWriter, r *http.Request, q neturl.Values, d *op) {
	gen := int64(math.MaxInt64)
	if d.object != "" {
		var err error
		if gen, err = reqGen(r); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error(), false, 0)
			return
		}
	}
	a, err := d.parse(q, s)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error(), false, 0)
		return
	}
	var res result
	step := func() { res, err = s.run(d, a) }
	if d.object == "" {
		step()
	} else if !s.fences[d.route(a)].admit(gen, step) {
		s.fenced(w)
		return
	}
	if err != nil {
		s.writeOpErr(w, err)
		return
	}
	s.ops[d.stat].Add(1)
	writeBody(w, d.body, res)
}

// healthz degrades with the watermark state instead of lying until the
// budgets wrap: 200 while every watched budget is below warn, 429 once a
// re-base is due (load balancers should shed elective traffic; the
// controller renews the budget on its next step), 503 past crit. Both
// degraded answers carry the structured unavailability body — a completed
// rollover returns the endpoint to 200, so Retry-After is honest.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	st := s.rebaser.State(stronglin.Thread(0))
	switch st {
	case stronglin.WatermarkCrit:
		s.unavailable(w, http.StatusServiceUnavailable, "watermark critical: a budget is nearly spent and a live re-base is in flight or due", true)
	case stronglin.WatermarkWarn:
		s.unavailable(w, http.StatusTooManyRequests, "watermark warn: a live re-base is due", true)
	default:
		fmt.Fprintln(w, "ok")
	}
}

// writeErr is THE error shape: every non-200 response from every endpoint —
// wrong method, bad parameter, fenced generation, spent budget — carries the
// same JSON body {error, retryable, retry_after_seconds}, so a routing tier
// (or any client) classifies failures by two typed fields instead of
// per-endpoint prose. retryAfter <= 0 means "no hint" (the field still
// appears, as 0, so the shape never varies); retryAfter > 0 additionally
// sets the Retry-After header for clients that only speak HTTP.
func writeErr(w http.ResponseWriter, code int, reason string, retryable bool, retryAfter int64) {
	if retryAfter < 0 {
		retryAfter = 0
	}
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"error":               reason,
		"retryable":           retryable,
		"retry_after_seconds": retryAfter,
	})
}

// unavailable answers a load-shedding status (429/503) with a Retry-After
// hint, so clients can distinguish "back off and retry" (retryable: a
// watermark crossing the controller will re-base away within about one
// -rollover-interval) from "this resource is finished" (the clock's
// terminal Algorithm 1 budget) without parsing prose.
func (s *server) unavailable(w http.ResponseWriter, code int, reason string, retryable bool) {
	retryAfter := int64(rolloverEvery.Seconds())
	if retryAfter < 1 {
		retryAfter = 1
	}
	writeErr(w, code, reason, retryable, retryAfter)
}

// debugHandler is the -debug-addr surface: the same /metrics plus
// net/http/pprof, mounted explicitly so the profiler never leaks onto the
// public mux (and the default mux stays untouched).
func (s *server) debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// metrics serves the registry in the Prometheus text exposition format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// statusWriter captures the response code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrumented wraps either tier's handler with the request telemetry: one
// counter increment, one histogram observation, and (on >= 400) one error
// increment per request — padded atomics, no locks, no allocation beyond
// the wrapper. byPath adds the per-endpoint split (unknown paths, and every
// path when byPath is nil, land only in the aggregate).
func instrumented(next http.HandlerFunc, total, errs *obs.Counter, dur *obs.Histogram, byPath map[string]*obs.Histogram) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
		next(&sw, r)
		total.Inc()
		if sw.code >= 400 {
			errs.Inc()
		}
		ns := time.Since(t0).Nanoseconds()
		dur.Observe(ns)
		byPath[r.URL.Path].Observe(ns)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already committed; nothing sensible remains.
		return
	}
}

// fenceHandler raises a routed object's fence floor: POST /fence?obj=O&gen=G.
// Monotone and idempotent — re-fencing at or below the floor answers the
// standing floor. When this returns, no request of a generation below G is
// in flight anymore (raise holds the gate's write side), so the caller may
// read the object's authoritative value and migrate it.
func (s *server) fenceHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only", false, 0)
		return
	}
	g := s.fences[r.URL.Query().Get("obj")]
	if g == nil {
		writeErr(w, http.StatusBadRequest, "obj must be one of "+strings.Join(routeKeys, ", "), false, 0)
		return
	}
	gen, err := strconv.ParseInt(r.URL.Query().Get("gen"), 10, 64)
	if err != nil || gen < 0 {
		writeErr(w, http.StatusBadRequest, "gen must be a non-negative integer", false, 0)
		return
	}
	writeJSON(w, map[string]any{"ok": true, "floor": g.raise(gen)})
}

// statsSnapshot is the /stats document minus the per-op counters, which
// statsDoc adds from the object table.
type statsSnapshot struct {
	Lanes         int    `json:"lanes"`
	Shards        int    `json:"shards"`
	MaxValue      int64  `json:"max_value"`
	CounterPacked bool   `json:"counter_packed"`
	MaxregPacked  bool   `json:"maxreg_packed"`
	GSetPacked    bool   `json:"gset_packed"`
	SnapPacked    bool   `json:"snapshot_packed"`
	SnapEngine    string `json:"snapshot_engine"`
	SnapWords     int    `json:"snapshot_words"`
	MsnapEngine   string `json:"msnapshot_engine"`
	MsnapWords    int    `json:"msnapshot_words"`
	// ClockPacked reports a machine-word clock engine — the single packed
	// word OR the multi-word striping (see ClockEngine for which).
	ClockPacked   bool   `json:"clock_packed"`
	ClockEngine   string `json:"clock_engine"`
	ClockWords    int    `json:"clock_words"`
	ClockCapacity int64  `json:"clock_capacity"`
	ClockUsed     int64  `json:"clock_used"`
	// Helping telemetry: per-object helper deposits, adopted reads/scans,
	// failed adoption witnesses, failed validation rounds, and
	// pressure-raise episodes. Non-zero deposit/adopt counts mean some
	// combining read exhausted its retry budget under write pressure and was
	// completed by the wait-free helping path; retries alone mean rounds
	// failed but self-validation still won within budget.
	CounterHelp stronglin.HelpStats `json:"counter_help"`
	MaxregHelp  stronglin.HelpStats `json:"maxreg_help"`
	GSetHelp    stronglin.HelpStats `json:"gset_help"`
	SnapHelp    stronglin.HelpStats `json:"snapshot_help"`
	MsnapHelp   stronglin.HelpStats `json:"msnapshot_help"`
	// Cache telemetry: per-object anchor-/epoch-validated view-cache
	// hit/miss/refresh counts (zero when the engine carries no cache).
	CounterCache stronglin.CacheStats `json:"counter_cache"`
	MaxregCache  stronglin.CacheStats `json:"maxreg_cache"`
	GSetCache    stronglin.CacheStats `json:"gset_cache"`
	MsnapCache   stronglin.CacheStats `json:"msnapshot_cache"`
	// Watermark / live re-base telemetry: the worst budget state across the
	// watched engines ("ok", "warn", "crit" — what /healthz answers from),
	// completed and refused rollovers, each sharded object's epoch rollover
	// generation, and the multi-word snapshot's cutover block.
	WatermarkState    string                `json:"watermark_state"`
	Rollovers         int64                 `json:"rollovers"`
	RolloversRefused  int64                 `json:"rollovers_refused"`
	CounterGeneration int64                 `json:"counter_epoch_generation"`
	MaxregGeneration  int64                 `json:"maxreg_epoch_generation"`
	GSetGeneration    int64                 `json:"gset_epoch_generation"`
	MsnapRebase       stronglin.RebaseStats `json:"msnapshot_rebase"`
	// Keyed universe: the hashed gset's and monotone map's table shapes,
	// growth history, and validated-read witness telemetry.
	KGSet keyedStats `json:"kgset"`
	KMap  keyedStats `json:"kmap"`
	// Ownership fences: each routed object's backend-side fence floor (the
	// cluster handoff's 409 surface) and the requests refused below one. The
	// keyed objects fence per routing partition, index = partition number.
	CounterFenceFloor int64   `json:"counter_fence_floor"`
	MaxregFenceFloor  int64   `json:"maxreg_fence_floor"`
	GSetFenceFloor    int64   `json:"gset_fence_floor"`
	KGSetFenceFloors  []int64 `json:"kgset_fence_floors"`
	MapFenceFloors    []int64 `json:"map_fence_floors"`
	FenceRejects      int64   `json:"fence_rejects"`
	// Coalescing: how many requests rode another request's batch instead
	// of running their own engine operation.
	CoalesceAbsorbed int64 `json:"coalesce_absorbed"`
	LanesInUse       int   `json:"lanes_in_use"`
	Acquires         int64 `json:"lease_acquires"`
}

// keyedStats is one keyed object's table/growth telemetry in /stats — the
// JSON shape of stronglin.KeyedStats (identical fields, so it converts).
type keyedStats struct {
	Buckets        int   `json:"buckets"`
	Slots          int   `json:"slots"`
	Keys           int   `json:"keys"`
	WordsPerBucket int   `json:"words_per_bucket"`
	Packed         bool  `json:"packed"`
	Generation     int64 `json:"generation"`
	Rehashes       int64 `json:"rehashes"`
	ReadRetries    int64 `json:"read_retries"`
	EpochAnnounces int64 `json:"epoch_announces"`
}

// coalesceAbsorbed totals the follower requests every coalescer absorbed —
// the engine operations batching saved.
func (s *server) coalesceAbsorbed() int64 {
	var n int64
	for _, co := range s.co {
		n += co.absorbed.Load()
	}
	return n
}

// drainCoalescers closes every coalescing funnel for shutdown: in-flight
// batches finish, later arrivals run uncoalesced instead of parking behind
// them (see coalescer.drain for the race this removes).
func (s *server) drainCoalescers() {
	for _, co := range s.co {
		co.drain()
	}
}

func (s *server) snapshot() statsSnapshot {
	// Reading the ticket register needs no lease (and must not take one:
	// /stats should answer even when every lane is out to slow writers).
	acquires := s.pool.Acquires(stronglin.Thread(0))
	return statsSnapshot{
		Lanes:             s.lanes,
		Shards:            s.shards,
		MaxValue:          s.maxValue,
		CounterPacked:     s.counter.Packed(),
		MaxregPacked:      s.maxreg.Packed(),
		GSetPacked:        s.gset.Packed(),
		SnapPacked:        s.snap.Packed(),
		SnapEngine:        s.snap.Engine(),
		SnapWords:         s.snap.Words(),
		MsnapEngine:       s.msnap.Engine(),
		MsnapWords:        s.msnap.Words(),
		ClockPacked:       s.clock.Engine() != "wide",
		ClockEngine:       s.clock.Engine(),
		ClockWords:        s.clock.Words(),
		ClockCapacity:     s.clock.Capacity(),
		ClockUsed:         s.clock.Used(),
		CounterHelp:       s.counter.HelpStats(),
		MaxregHelp:        s.maxreg.HelpStats(),
		GSetHelp:          s.gset.HelpStats(),
		SnapHelp:          s.snap.HelpStats(),
		MsnapHelp:         s.msnap.HelpStats(),
		CounterCache:      s.counter.CacheStats(),
		MaxregCache:       s.maxreg.CacheStats(),
		GSetCache:         s.gset.CacheStats(),
		MsnapCache:        s.msnap.CacheStats(),
		WatermarkState:    s.rebaser.State(stronglin.Thread(0)).String(),
		Rollovers:         s.rebaser.Stats().Rollovers,
		RolloversRefused:  s.rebaser.Stats().Refused,
		CounterGeneration: s.counter.EpochGeneration(stronglin.Thread(0)),
		MaxregGeneration:  s.maxreg.EpochGeneration(stronglin.Thread(0)),
		GSetGeneration:    s.gset.EpochGeneration(stronglin.Thread(0)),
		MsnapRebase:       s.msnap.RebaseStats(),
		KGSet:             keyedStats(s.kgset.Stats(stronglin.Thread(0))),
		KMap:              keyedStats(s.kmap.Stats(stronglin.Thread(0))),
		CounterFenceFloor: s.fences["counter"].Floor(),
		MaxregFenceFloor:  s.fences["maxreg"].Floor(),
		GSetFenceFloor:    s.fences["gset"].Floor(),
		KGSetFenceFloors:  s.keyedFloors("kgset"),
		MapFenceFloors:    s.keyedFloors("map"),
		FenceRejects:      s.fenceRejects.Load(),
		CoalesceAbsorbed:  s.coalesceAbsorbed(),
		LanesInUse:        s.pool.InUse(),
		Acquires:          acquires,
	}
}

// keyedFloors snapshots one keyed object's per-partition fence floors.
func (s *server) keyedFloors(object string) []int64 {
	out := make([]int64, keyPartitions)
	for p := range out {
		out[p] = s.fences[fmt.Sprintf("%s.p%d", object, p)].Floor()
	}
	return out
}

// statsDoc is the /stats document: the snapshot plus one op counter per
// /stats key of the object table.
func (s *server) statsDoc() map[string]any {
	b, _ := json.Marshal(s.snapshot())
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var doc map[string]any
	dec.Decode(&doc)
	for name, n := range s.ops {
		doc[name] = n.Load()
	}
	return doc
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only", false, 0)
		return
	}
	writeJSON(w, s.statsDoc())
}

// defaultMaxValue bounds client-supplied values when no -bound is declared.
// The wide fetch&add constructions store values in unary (max register: width
// ~ v*lanes bits) or one bit per element (gset: bit x*lanes), so an unbounded
// value is an allocation — and past the int bit-index range, a panic — a
// single request could trigger. With -bound the cap is min(bound,
// defaultMaxValue): tighter bounds narrow it, and a bound too large to pack
// must not widen it (the shards are wide registers in that case).
const defaultMaxValue = 1 << 20

// --- attack mode -------------------------------------------------------------

// attackReport is the JSON document the load generator prints. Requests and
// OpsPerSec count SUCCESSFUL requests only, so a down or erroring target
// reports its failure rather than inflated throughput; LatencyMS likewise
// aggregates successful requests only. The report labels its loop mode:
// closed-loop latencies exclude queueing by construction (each client waits
// for its response before offering more load), open-loop latencies include it
// (measured from the request's intended send time), so the two are only
// comparable knowing which loop produced them.
type attackReport struct {
	Target   string `json:"target"`
	Clients  int    `json:"clients"`
	Duration string `json:"duration"`
	// Loop is "closed" or "open"; Arrivals the arrival process that drove it.
	Loop     string  `json:"loop"`
	Arrivals string  `json:"arrivals"`
	Mix      string  `json:"mix"`
	RateRPS  float64 `json:"rate_rps,omitempty"` // offered load (open loop)
	// Offered counts scheduled arrivals; Unsent the schedule tail abandoned
	// by the overload watchdog (nonzero only when the target fell an order
	// of magnitude behind the offered rate).
	Offered  int64 `json:"offered,omitempty"`
	Unsent   int64 `json:"unsent,omitempty"`
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Retried counts retry attempts honored on retryable statuses (the
	// server's structured 503/429 bodies); Exhausted the logical requests
	// still refused after the whole retry budget (a subset of Errors).
	Retried   int64          `json:"retried"`
	Exhausted int64          `json:"exhausted"`
	OpsPerSec float64        `json:"ops_per_sec"`
	LatencyMS latencyMS      `json:"latency_ms"`
	Stats     map[string]any `json:"server_stats"`
}

// latencyMS is the per-request latency distribution in milliseconds.
type latencyMS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// summarizeHist renders the shared latency histogram (nanosecond
// observations) as millisecond percentiles — the one summary path every loop
// mode reports through. The true maximum is carried by a gauge watermark
// (histogram buckets are log₂-ranged, so their upper bounds overestimate it).
func summarizeHist(h *obs.Histogram, max *obs.Gauge) latencyMS {
	if h.Count() == 0 {
		return latencyMS{}
	}
	hi := float64(max.Load())
	// Bucket upper bounds overestimate within the top bucket; the exact
	// watermark caps every quantile so p99 can never exceed the true max.
	q := func(p float64) float64 {
		v := h.Quantile(p)
		if v > hi {
			v = hi
		}
		return v / float64(time.Millisecond)
	}
	return latencyMS{
		P50: q(0.50),
		P95: q(0.95),
		P99: q(0.99),
		Max: hi / float64(time.Millisecond),
	}
}

// pickOp maps (mix, client, sequence) to an op code 0..9 (see fire). The
// codes pair up as write/read per object: counter (0/1), maxreg (2/3), gset
// (4/5), snapshot (6/7), multi-word snapshot (8/9).
func pickOp(mix string, c, i int) int {
	switch mix {
	case "read-heavy":
		// 10% writes round-robined across the objects, 90% reads.
		if i%10 == 0 {
			return ((c + i) % 5) * 2
		}
		return ((c+i)%5)*2 + 1
	case "write-storm":
		// 90% writes, 10% reads: every object's epoch/announce traffic with
		// barely any readers — the combining reads that do run retry hard.
		if i%10 == 9 {
			return ((c+i)%5)*2 + 1
		}
		return ((c + i) % 5) * 2
	case "storm":
		// Adversarial starvation, shaped like sim.AnchorStormPolicy: a wall
		// of multi-word snapshot updates (announce traffic on word 0, the
		// scan's anchor) against a minority of scans trying to validate —
		// the schedule family that starves the unhelped double collect and
		// drives the deposit/adopt machinery under real traffic.
		if i%5 == 4 {
			return 9 // msnapshot scan
		}
		return 8 // msnapshot update
	case "counter":
		// Counter-only, write-heavy: the mix the multi-backend chaos soak
		// drives through the routing frontend, where every increment's ack
		// must survive ownership handoffs (lost-update accounting needs a
		// single monotone object).
		if i%4 == 3 {
			return 1 // counter read
		}
		return 0 // counter inc
	default: // "default": the original 50/50 mix
		return i % 10
	}
}

func validMix(mix string) bool {
	switch mix {
	case "default", "read-heavy", "write-storm", "storm", "counter":
		return true
	}
	return false
}

// attackTelemetry is the shared per-run instrumentation: every successful
// request lands one latency observation (nanoseconds) in the histogram and
// raises the max watermark, whatever the loop mode. retried counts retry
// attempts honored on retryable statuses; exhausted counts logical requests
// that stayed retryable through the whole retry budget (those also land in
// errors — an exhausted request IS a failed request, just a classified one).
type attackTelemetry struct {
	latency   obs.Histogram
	latMax    obs.Gauge
	requests  atomic.Int64
	errors    atomic.Int64
	retried   atomic.Int64
	exhausted atomic.Int64
}

func (a *attackTelemetry) record(lat time.Duration, err error) {
	if err != nil {
		a.errors.Add(1)
		return
	}
	a.latency.Observe(lat.Nanoseconds())
	a.latMax.Mark(lat.Nanoseconds())
	a.requests.Add(1)
}

// statusError is a non-200 answer decoded into the server's uniform error
// shape: {error, retryable, retry_after_seconds}. The attack client backs
// off and retries exactly when the server says to — a 503 mid-rollover or a
// 503 from a routing frontend with a dead owner is load-shedding, not
// failure, and hammering it would measure the wrong thing.
type statusError struct {
	code       int
	reason     string
	retryable  bool
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d (%s)", e.code, e.reason)
}

// retryBackoffFloor is the minimum post-jitter sleep between retries. A
// retryable 503 carrying retry_after_seconds: 0 means "retry, no estimate" —
// it must never mean "retry immediately": with the hint used verbatim a
// fleet of refused clients busy-loops against the endpoint that just shed
// them.
const retryBackoffFloor = time.Millisecond

// retryBackoff computes the attempt'th retry sleep: the server's hint when
// it gave one, else an exponential base; capped so the generator keeps
// offering load; full-jittered (uniform over [0, sleep)) so clients refused
// together do not return together; floored so a zero or negative hint can
// never collapse the sleep to nothing.
func retryBackoff(attempt int, hint time.Duration) time.Duration {
	const base = 5 * time.Millisecond
	const sleepCap = 100 * time.Millisecond
	sleep := hint
	if sleep <= 0 {
		sleep = base << uint(attempt)
	}
	if sleep > sleepCap {
		sleep = sleepCap
	}
	jittered := time.Duration(rand.Int63n(int64(sleep)))
	if jittered < retryBackoffFloor {
		jittered = retryBackoffFloor
	}
	return jittered
}

// fireWithRetry drives one logical request through fire, honoring the
// structured retry contract: on a retryable status it sleeps retryBackoff of
// the server's retry_after_seconds hint, up to maxRetries times. Exhausting
// the budget on a still-retryable status is reported as exhausted.
func fireWithRetry(client *http.Client, target string, op, c, i int, valCap int64, tele *attackTelemetry) error {
	const maxRetries = 3
	for attempt := 0; ; attempt++ {
		err := fire(client, target, op, c, i, valCap)
		var se *statusError
		if err == nil || !errors.As(err, &se) || !se.retryable {
			return err
		}
		if attempt == maxRetries {
			tele.exhausted.Add(1)
			return err
		}
		tele.retried.Add(1)
		time.Sleep(retryBackoff(attempt, se.retryAfter))
	}
}

func runAttack() error {
	if !validMix(*mixName) {
		return fmt.Errorf("unknown -mix %q (want default, read-heavy, write-storm or storm)", *mixName)
	}
	openLoop := false
	switch *arrivals {
	case "closed":
	case "poisson", "burst":
		openLoop = true
		if *rate <= 0 {
			return fmt.Errorf("-arrivals %s needs -rate > 0, got %v", *arrivals, *rate)
		}
		if *arrivals == "burst" && *burstSize < 1 {
			return fmt.Errorf("-burst-size must be >= 1, got %d", *burstSize)
		}
	default:
		return fmt.Errorf("unknown -arrivals %q (want closed, poisson or burst)", *arrivals)
	}

	target := *url
	var srv *server
	if target == "" {
		// Self-contained run: serve the stack from this process on a loopback
		// port and attack it over real HTTP.
		srv = newServer(*lanes, *shards, *bound)
		if *rollover {
			// The soak harness forces a tiny -watermark-budget here, so the
			// controller rolls the engines over repeatedly under full load.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv.startRollover(ctx, *rolloverEvery)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := newHTTPServer(srv.handler())
		go hs.Serve(ln)
		defer hs.Shutdown(context.Background())
		target = "http://" + ln.Addr().String()
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	// Written values stay inside the served value domain, so a -bound attack
	// exercises the packed fast path instead of drowning in 400s. (Compare
	// before adding 1: *bound may be MaxInt64.)
	valCap := int64(1024)
	if *bound > 0 && *bound < valCap {
		valCap = *bound + 1
	}

	tele := &attackTelemetry{}
	rep := attackReport{
		Target:   target,
		Clients:  *clients,
		Arrivals: *arrivals,
		Mix:      *mixName,
	}
	var elapsed time.Duration
	if openLoop {
		rep.Loop = "open"
		rep.RateRPS = *rate
		offered, unsent, el := runOpenLoop(client, target, valCap, tele)
		rep.Offered, rep.Unsent, elapsed = offered, unsent, el
	} else {
		rep.Loop = "closed"
		elapsed = runClosedLoop(client, target, valCap, tele)
	}

	rep.Duration = elapsed.String()
	rep.Requests = tele.requests.Load()
	rep.Errors = tele.errors.Load()
	rep.Retried = tele.retried.Load()
	rep.Exhausted = tele.exhausted.Load()
	rep.OpsPerSec = float64(tele.requests.Load()) / elapsed.Seconds()
	rep.LatencyMS = summarizeHist(&tele.latency, &tele.latMax)
	if srv != nil {
		rep.Stats = srv.statsDoc()
	} else {
		// Remote target: ask it for its own counts. On any failure leave the
		// stats out rather than publishing a zeroed block that reads as an
		// idle server.
		if resp, err := client.Get(target + "/stats"); err != nil {
			fmt.Fprintln(os.Stderr, "slserve: remote /stats unavailable:", err)
		} else {
			decErr := json.NewDecoder(resp.Body).Decode(&rep.Stats)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decErr != nil {
				fmt.Fprintf(os.Stderr, "slserve: remote /stats unusable (status %d, decode err %v); omitting server_stats\n", resp.StatusCode, decErr)
				rep.Stats = nil
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runClosedLoop is the classic closed loop: each of the -clients workers
// fires its next request as soon as the previous response lands, for -dur.
// Latency is response time as the CLIENT experienced it; offered load adapts
// to the server, so queueing never shows in these numbers.
func runClosedLoop(client *http.Client, target string, valCap int64, tele *attackTelemetry) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				t0 := time.Now()
				err := fireWithRetry(client, target, pickOp(*mixName, c, i), c, i, valCap, tele)
				tele.record(time.Since(t0), err)
			}
		}(c)
	}
	start := time.Now()
	time.Sleep(*dur)
	stop.Store(true)
	wg.Wait()
	return time.Since(start)
}

// runOpenLoop offers load at -rate regardless of how the target keeps up.
// The arrival schedule — every request's INTENDED send instant — is drawn up
// front (-attack-seed makes it reproducible): exponential gaps for poisson,
// -burst-size trains at the same aggregate rate for burst. Workers claim
// schedule entries in order, sleep until each entry's instant, fire, and
// record latency from the INTENDED instant, not the actual send — so when
// all workers are busy and entries fire late, the backlog time counts
// against the server. This is the standard defence against coordinated
// omission: a closed loop silently stops offering load exactly when the
// server is slowest, which deletes the worst samples from the tail.
//
// Workers drain the whole schedule even past -dur (the queueing tail is the
// point), but a watchdog abandons the remainder once the run exceeds 10x
// -dur — the report's unsent count then says the target was hopelessly
// overloaded rather than hanging the generator forever.
func runOpenLoop(client *http.Client, target string, valCap int64, tele *attackTelemetry) (offered, unsent int64, elapsed time.Duration) {
	offsets := buildSchedule(*arrivals, *rate, *burstSize, *dur, *attackSeed)
	offered = int64(len(offsets))
	var next atomic.Int64
	var abandon atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	deadline := time.AfterFunc(10*(*dur), func() { abandon.Store(true) })
	defer deadline.Stop()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !abandon.Load() {
				idx := next.Add(1) - 1
				if idx >= int64(len(offsets)) {
					return
				}
				intended := start.Add(offsets[idx])
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				err := fireWithRetry(client, target, pickOp(*mixName, c, int(idx)), c, int(idx), valCap, tele)
				// Coordinated-omission-safe: latency from the intended send
				// instant, so time spent waiting for a free worker (server
				// backlog) is charged to this request — retry backoffs
				// included, since the server asked for them.
				tele.record(time.Since(intended), err)
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	if claimed := next.Load(); claimed < offered {
		unsent = offered - claimed
	}
	return offered, unsent, elapsed
}

// buildSchedule draws the open-loop arrival offsets covering dur at the
// given aggregate rate: exponential inter-arrival gaps (poisson) or
// back-to-back trains of burstSize with exponential gaps between trains
// (burst — same offered rate, maximally clumped). Offsets are ascending.
func buildSchedule(kind string, rate float64, burstSize int, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var offsets []time.Duration
	switch kind {
	case "burst":
		// Trains of burstSize at one instant; gaps between train STARTS are
		// exponential with mean burstSize/rate, preserving the aggregate rate.
		meanGap := float64(burstSize) / rate
		for t := 0.0; t < dur.Seconds(); t += rng.ExpFloat64() * meanGap {
			at := time.Duration(t * float64(time.Second))
			for b := 0; b < burstSize; b++ {
				offsets = append(offsets, at)
			}
		}
	default: // "poisson"
		for t := 0.0; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
			offsets = append(offsets, time.Duration(t*float64(time.Second)))
		}
	}
	return offsets
}

// fire issues one request. op codes pair write/read per object: 0/1 counter
// inc/read, 2/3 maxreg write/read, 4/5 gset add/has, 6/7 snapshot
// update/scan, 8/9 multi-word snapshot update/scan. Written values are taken
// modulo valCap so they stay inside the target's declared value domain — for
// the snapshot this means a -bound attack drives the packed Theorem 2 word
// (one XADD per update, one per scan), and the /msnapshot pair always drives
// the k-XADD engine's announcing updates and validated double-collect scans.
func fire(client *http.Client, target string, op, c, i int, valCap int64) error {
	var resp *http.Response
	var err error
	xCap := valCap
	if xCap > 256 {
		xCap = 256
	}
	switch op {
	case 0:
		resp, err = client.Post(target+"/counter/inc", "", nil)
	case 1:
		resp, err = client.Get(target + "/counter")
	case 2:
		resp, err = client.Post(fmt.Sprintf("%s/maxreg?v=%d", target, int64(c*31+i)%valCap), "", nil)
	case 3:
		resp, err = client.Get(target + "/maxreg")
	case 4:
		resp, err = client.Post(fmt.Sprintf("%s/gset?x=%d", target, int64(c+i)%xCap), "", nil)
	case 5:
		resp, err = client.Get(fmt.Sprintf("%s/gset?x=%d", target, int64(c+i)%xCap))
	case 6:
		resp, err = client.Post(fmt.Sprintf("%s/snapshot?v=%d", target, int64(c*17+i)%valCap), "", nil)
	case 7:
		resp, err = client.Get(target + "/snapshot")
	case 8:
		resp, err = client.Post(fmt.Sprintf("%s/msnapshot?v=%d", target, int64(c*13+i)%valCap), "", nil)
	default:
		resp, err = client.Get(target + "/msnapshot")
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		// Decode the uniform error shape so the caller can honor the retry
		// contract; a body that isn't the shape (a 404's plain text) just
		// leaves the zero values — not retryable, no hint.
		var body struct {
			Error             string `json:"error"`
			Retryable         bool   `json:"retryable"`
			RetryAfterSeconds int64  `json:"retry_after_seconds"`
		}
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return &statusError{
			code:       resp.StatusCode,
			reason:     body.Error,
			retryable:  body.Retryable,
			retryAfter: time.Duration(body.RetryAfterSeconds) * time.Second,
		}
	}
	// Drain before closing so the keep-alive connection is reusable;
	// otherwise every request pays a fresh TCP handshake and the report
	// measures connection setup, not the server.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}
