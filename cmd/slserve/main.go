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
//	POST /kgset/add?k=K        add key K to the keyed grow-only set
//	GET  /kgset/has?k=K        keyed membership query
//	POST /map/inc?k=K[&d=2]    add d (default 1) to K's counter in the monotone map
//	POST /map/max?k=K&v=9      write-max K's max register in the monotone map
//	GET  /map/get?k=K          read K's value and kind (404 if never written)
//	POST /counter/add?d=5      add d to the counter (the routing tier's seeding surface)
//	POST /fence?obj=O&gen=G    raise routed object O's ownership fence floor to G
//	GET  /stats                lanes, shards, lease and per-endpoint op counts
//	GET  /metrics              Prometheus text format (see Observability)
//	GET  /healthz              liveness, degraded by the budget watermarks
//
// The data listener serves a narrow HTTP/1.1 subset of its own (wire.go):
// keep-alive and pipelining, no request bodies, an 8 KiB head cap.
//
// Every object endpoint is one entry of the object table (objects.go); the
// same table drives the routing frontend (frontend.go). Unknown paths get
// the uniform JSON 404, a known path with the wrong method 405.
//
// With -bound B the server declares the value domain [0, B] for max-register
// values, grow-only-set elements and snapshot components (requests outside
// it are rejected with 400), which lets each shard core pack its register
// into a single machine word when the unary/bitmap encoding fits: the packed
// fast path of internal/core. Without -bound the cap is 2²⁰ and the max
// register and grow-only set stay on wide registers. The counter always runs
// packed (its capacity bound is a machine word regardless). /snapshot
// declares the request cap as its bound at every -bound, so the Theorem 2
// snapshot is always machine words: one packed word when lanes × the cap's
// bit width fits, the multi-word engine otherwise (4 words at 8 lanes and
// -bound 0). /msnapshot is a second snapshot pinned to the multi-word
// engine's word-budget arithmetic — components striped across ⌈lanes/2⌉
// XADD words (24-bit fields next to the per-word sequence fields) — so a
// k-XADD object is served at every lane count, whatever -bound says.
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
// Every request runs its own engine step under a leased lane: the engines
// are wait-free, and a fetch&add observation depends only on the set of
// operations before it, so concurrent requests need no combining for
// correctness or for order. A scan writes its view into a buffer its
// connection keeps, so the dense objects' requests allocate nothing once
// each lane has seen its values.
//
// GET /metrics serves the Prometheus text format from the internal/obs
// registry: request counts/errors/latency (aggregate AND a per-endpoint
// duration histogram family), per-object helping telemetry (deposits,
// adopts, adopt misses, retries, pressure raises), retry-round histograms,
// lane-lease waits/steals, and the LIFETIME WATERMARKS — epoch announce
// counts against the 2⁴⁸ budget, per-word sequence fields against the
// mod-2¹⁶ wrap, clock references against the Algorithm 1 capacity. The watermarks are derived at scrape time from the
// registers themselves, so serving them costs the protocol paths nothing.
// With -debug-addr HOST:PORT a second listener additionally serves /metrics
// and the pprof profiles (the profiling surface stays off the public port),
// on either tier. It is served by the wire server, so request bodies are
// refused, and /debug/pprof/symbol is gone (debug.go).
//
// Load is generated outside this command: benchmark/run.sh builds slserve
// from a tree, starts it with its default flags and checks every answer
// (see benchmark/README.md and scripts/ab.sh).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode/utf8"

	"stronglin"
	"stronglin/internal/obs"
)

var (
	addr      = flag.String("addr", ":8080", "listen address (serve mode)")
	debugAddr = flag.String("debug-addr", "", "extra listener serving /metrics and the pprof profiles, on either tier (empty = none)")
	lanes     = flag.Int("lanes", 8, "process identities in the lane pool")
	shards    = flag.Int("shards", 4, "fetch&add cores per sharded object (<= lanes)")
	bound     = flag.Int64("bound", 0, "value domain [0,bound] for maxreg values, gset elements and snapshot components (0 = [0,2^20]); packs the maxreg and gset shard registers into machine words when the encodings fit (0 = wide registers); the snapshot runs on machine words at every bound")

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
// every in-flight request finish inside -drain-timeout, and return nil so
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
	return serveUntil(ctx, stop, ln, srv.wire(), startDebug(srv.reg))
}

// serveUntil is both tiers' listen/drain skeleton: serve ws on ln until
// ctx (a signal context, stop its cancel) ends, then gracefully shut ws
// and the -debug-addr server (if any) down within -drain-timeout.
func serveUntil(ctx context.Context, stop func(), ln net.Listener, ws *wireServer, dbg *wireServer) error {
	errc := make(chan error, 1)
	go func() { errc <- ws.serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal during the drain kills the process the hard way
	fmt.Println("slserve: signal received, draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := ws.shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if dbg != nil {
		dbg.cancel() // a CPU profile or trace in flight ends and answers now
		if err := dbg.shutdown(dctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	fmt.Println("slserve: drained")
	return nil
}

// readHeaderTimeout bounds how long a connection may take to deliver a
// request's headers, so a client that dribbles a partial request line cannot
// hold a connection and its goroutine forever. It is the only timeout the
// servers set: a read or idle timeout would close the idle keep-alive
// connections that load generators and the frontend's backend pool reuse.
const readHeaderTimeout = 5 * time.Second

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

// reqGen extracts the request's ownership generation; false means a
// malformed X-SL-Gen. Requests without the header (direct single-node
// clients) are never fenced.
func reqGen(r *request) (int64, bool) {
	if r.gen == "" {
		return math.MaxInt64, true
	}
	g, ok := atoi64(r.gen)
	return g, ok && g >= 0
}

// badGen is the 400 of a malformed X-SL-Gen, whose reason quotes it as
// fmt's %q does.
func badGen(w *respWriter, raw string) {
	startErr(w, statusBadRequest, 0)
	w.body = appendGoQuoted(appendEscaped(w.body, "X-SL-Gen must be a non-negative integer, got "), raw)
	endErr(w, false, 0)
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
	outOfRange    map[*param]error       // each parameter's 400 reason under this server's bounds

	// reg is this server's metric registry (per-server, not the package
	// default: tests build several servers per process). The data listener
	// (wire.go) feeds reqTotal/reqErrors/reqDur; clockRejects counts 503s
	// from the spent Algorithm 1 budget; everything else is scrape-time
	// closures over telemetry the engines already keep.
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
	// and read-only after: one op counter per /stats key (by stat name),
	// and one ownership fence per route key. A routing tier moving an
	// object away raises its fence (the cluster handoff protocol's 409
	// surface); fenceRejects counts requests refused below a floor. The
	// keyed universe fences per key partition — the routing tier moves
	// partitions, not single keys.
	ops          map[string]*atomic.Int64
	fences       map[string]*fenceGate
	fenceRejects atomic.Int64
}

// fenced answers the 409 a request below an object's fence floor gets: the
// ownership generation it carries is retired, the routing tier must re-read
// the ownership record and re-route. Always retryable — the object lives
// on, just elsewhere.
func (s *server) fenced(w *respWriter) {
	s.fenceRejects.Add(1)
	writeErr(w, statusConflict, "generation fenced: object ownership moved", true, 0)
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
	return newServerCfg(lanes, shards, bound, clockBudget, -1)
}

// newServerCfg is the full constructor: scanBudget >= 0 overrides the helped
// objects' scan/read retry budgets (0 = solicit help after the first failed
// round, the forced-adopt configuration), scanBudget < 0 keeps the library
// defaults. Every object is built with its retry-round histogram attached,
// and the registry closes over the engines' own telemetry for everything
// else, so the instrumentation adds no hot-path steps of its own.
func newServerCfg(lanes, shards int, bound, clockBudget int64, scanBudget int) *server {
	w := stronglin.NewWorld()
	reg := obs.NewRegistry()
	maxValue := int64(defaultMaxValue)
	var valueOpts []stronglin.ShardOption
	if bound > 0 {
		// The request cap never rises above the default: a bound too large to
		// pack leaves the shards on wide registers, where a single huge value
		// is a huge unary/bitmap allocation — exactly what the cap exists to
		// stop. (Packing bounds are < 63, far below the default cap.)
		if bound < maxValue {
			maxValue = bound
		}
		valueOpts = append(valueOpts, stronglin.WithBound(bound))
	}
	// /snapshot declares the request cap as its bound at every -bound, so it
	// runs on machine words: the single packed word when lanes × the cap's
	// bit width fits one, the multi-word engine otherwise.
	snapOpts := []stronglin.SnapshotOption{stronglin.WithSnapshotBound(maxValue)}
	var msnapOpts []stronglin.SnapshotOption
	if scanBudget >= 0 {
		valueOpts = append(valueOpts, stronglin.WithReadRetryBudget(scanBudget))
		snapOpts = append(snapOpts, stronglin.WithScanRetryBudget(scanBudget))
		msnapOpts = append(msnapOpts, stronglin.WithScanRetryBudget(scanBudget))
	}
	// Retry-round histograms, one per helped object: contended completions
	// only, so attaching them leaves the uncontended fast paths untouched.
	shardObs := func(name string) stronglin.ShardOption {
		return stronglin.WithShardObs(stronglin.ShardMetrics{
			ReadRounds: reg.Histogram("slserve_"+name+"_read_rounds", "failed validation rounds per contended "+name+" combining read"),
		})
	}
	counterOpts := []stronglin.ShardOption{stronglin.WithBound(counterBound), shardObs("counter")}
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
	msnapOpts = append(msnapOpts, stronglin.WithLiveRebase(true), stronglin.WithSnapshotObs(stronglin.SnapMetrics{
		ScanRounds: reg.Histogram("slserve_msnapshot_scan_rounds", "failed validation rounds per contended multi-word snapshot scan"),
	}))
	var clockOpts []stronglin.SnapshotOption
	if clockBudget > 0 {
		clockOpts = append(clockOpts, stronglin.WithSnapshotBound(clockBudget))
	}
	// The dedicated multi-word snapshot always declares the word-budget
	// bound, so it is machine-word-backed at every lane count (k XADD words
	// past 2 lanes).
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
	s.outOfRange = map[*param]error{}
	for _, d := range objects {
		if d.param != nil {
			s.outOfRange[d.param] = d.param.outOfRange(d.param.max(s))
		}
	}
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
// allocated here and fed by the data listener; all protocol telemetry is
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

	// Per-endpoint request-duration histogram family: the same observation
	// the aggregate slserve_request_duration_ns gets, split by URL path so a
	// slow endpoint (a contended scan, a clock walk) is visible on its own.
	s.endpointDur = make(map[string]*obs.Histogram)
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

// wire is the backend's data-listener server.
func (s *server) wire() *wireServer {
	return newWireServer(s.serve, s.reqTotal, s.reqErrors, s.reqDur, s.endpointDur)
}

// serve dispatches one request: the control endpoints, then the object
// table.
func (s *server) serve(w *respWriter, r *request) {
	switch r.path {
	case "/stats":
		s.stats(w, r)
		return
	case "/metrics":
		writeMetrics(w, s.reg)
		return
	case "/healthz":
		s.healthz(w)
		return
	case "/fence":
		s.fenceHandler(w, r)
		return
	}
	d := lookupOp(w, r, func(*op) bool { return true })
	if d == nil {
		return
	}
	s.serveOp(w, r, d)
}

// serveOp is every object's backend handler: X-SL-Gen (routed objects
// only) → parse → fence gate → engine step under a lane lease → typed
// error mapping → op count → body. The fence gate holds its read side over
// the engine step, so a concurrent /fence raise waits for it.
func (s *server) serveOp(w *respWriter, r *request, d *op) {
	gen := int64(math.MaxInt64)
	if d.object != "" {
		var ok bool
		if gen, ok = reqGen(r); !ok {
			badGen(w, r.gen)
			return
		}
	}
	a, err := d.parse(r.query, s)
	if err != nil {
		writeErr(w, statusBadRequest, err.Error(), false, 0)
		return
	}
	var res result
	step := func() { res, err = s.step(d, a, w.scanBuf(s.lanes)) }
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

// step runs d's engine step on a under a lane lease.
func (s *server) step(d *op, a args, view []int64) (result, error) {
	l := s.pool.Acquire()
	defer l.Release()
	return d.apply(s, l.Thread(), a, view)
}

// healthz degrades with the watermark state instead of lying until the
// budgets wrap: 200 while every watched budget is below warn, 429 once a
// re-base is due (load balancers should shed elective traffic; the
// controller renews the budget on its next step), 503 past crit. Both
// degraded answers carry the structured unavailability body — a completed
// rollover returns the endpoint to 200, so Retry-After is honest.
func (s *server) healthz(w *respWriter) {
	st := s.rebaser.State(stronglin.Thread(0))
	switch st {
	case stronglin.WatermarkCrit:
		s.unavailable(w, statusServiceUnavailable, "watermark critical: a budget is nearly spent and a live re-base is in flight or due", true)
	case stronglin.WatermarkWarn:
		s.unavailable(w, statusTooManyRequests, "watermark warn: a live re-base is due", true)
	default:
		writeOK(w)
	}
}

// writeErr is THE error shape: every non-200 response from every endpoint —
// wrong method, bad parameter, fenced generation, spent budget — carries the
// same JSON body {error, retryable, retry_after_seconds}, so a routing tier
// (or any client) classifies failures by two typed fields instead of
// per-endpoint prose. retryAfter <= 0 means "no hint" (the field still
// appears, as 0, so the shape never varies); retryAfter > 0 additionally
// sets the Retry-After header for clients that only speak HTTP.
func writeErr(w *respWriter, code int, reason string, retryable bool, retryAfter int64) {
	startErr(w, code, retryAfter)
	w.body = appendEscaped(w.body, reason)
	endErr(w, retryable, retryAfter)
}

// startErr begins writeErr's answer up to its reason, which the caller
// appends JSON-escaped; endErr closes it. A reason built from parts is
// escaped part by part instead of being built as one string.
func startErr(w *respWriter, code int, retryAfter int64) {
	w.code = code
	w.ctype = "application/json"
	if retryAfter > 0 {
		w.setHeader("Retry-After", strconv.FormatInt(retryAfter, 10))
	}
	w.body = append(w.body, `{"error":"`...)
}

func endErr(w *respWriter, retryable bool, retryAfter int64) {
	b := strconv.AppendInt(append(w.body, `","retry_after_seconds":`...), max(retryAfter, 0), 10)
	b = strconv.AppendBool(append(b, `,"retryable":`...), retryable)
	w.body = append(b, "}\n"...)
}

// appendEscaped appends s as the inside of a JSON string, byte for byte
// what encoding/json writes: the short escapes, other control bytes and <,
// >, & as \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped. Each
// rune is escaped on its own, so escaping strings one after another escapes
// their concatenation when no rune straddles a boundary.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', byte(c))
		case c == '\b':
			b = append(b, `\b`...)
		case c == '\f':
			b = append(b, `\f`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '\r':
			b = append(b, `\r`...)
		case c == '\t':
			b = append(b, `\t`...)
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c == utf8.RuneError && size == 1:
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return b
}

// appendGoQuoted appends strconv.Quote(s) JSON-escaped, one rune at a time:
// Quote decides each rune's form from that rune alone, so no quoted copy of
// s is built.
func appendGoQuoted(b []byte, s string) []byte {
	b = append(b, `\"`...)
	var q [16]byte // the longest form of one rune, "\U0010ffff", with its quotes
	for i := 0; i < len(s); {
		_, size := utf8.DecodeRuneInString(s[i:])
		r := strconv.AppendQuote(q[:0], s[i:i+size])
		b = appendEscaped(b, view(r[1:len(r)-1]))
		i += size
	}
	return append(b, `\"`...)
}

// writeOK is /healthz's plain-text 200.
func writeOK(w *respWriter) {
	w.ctype = "text/plain; charset=utf-8"
	w.body = append(w.body, "ok\n"...)
}

// unavailable answers a load-shedding status (429/503) with a Retry-After
// hint, so clients can distinguish "back off and retry" (retryable: a
// watermark crossing the controller will re-base away within about one
// -rollover-interval) from "this resource is finished" (the clock's
// terminal Algorithm 1 budget) without parsing prose.
func (s *server) unavailable(w *respWriter, code int, reason string, retryable bool) {
	retryAfter := int64(rolloverEvery.Seconds())
	if retryAfter < 1 {
		retryAfter = 1
	}
	writeErr(w, code, reason, retryable, retryAfter)
}

// promContentType is the Prometheus text exposition format, version 0.0.4.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writeMetrics serves a registry in the Prometheus text format.
func writeMetrics(w *respWriter, reg *obs.Registry) {
	w.ctype = promContentType
	reg.WritePrometheus(w) // writes into w's buffer, which cannot fail
}

// writeJSON answers 200 with v as JSON (the /stats and /fence documents).
func writeJSON(w *respWriter, v any) {
	w.ctype = "application/json"
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeErr(w, statusInternalServerError, err.Error(), false, 0)
	}
}

// fenceHandler raises a routed object's fence floor: POST /fence?obj=O&gen=G.
// Monotone and idempotent — re-fencing at or below the floor answers the
// standing floor. When this returns, no request of a generation below G is
// in flight anymore (raise holds the gate's write side), so the caller may
// read the object's authoritative value and migrate it.
func (s *server) fenceHandler(w *respWriter, r *request) {
	if r.method != methodPost {
		writeErr(w, statusMethodNotAllowed, "POST only", false, 0)
		return
	}
	g := s.fences[r.query.Get("obj")]
	if g == nil {
		writeErr(w, statusBadRequest, "obj must be one of "+strings.Join(routeKeys, ", "), false, 0)
		return
	}
	gen, err := strconv.ParseInt(r.query.Get("gen"), 10, 64)
	if err != nil || gen < 0 {
		writeErr(w, statusBadRequest, "gen must be a non-negative integer", false, 0)
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
	LanesInUse        int     `json:"lanes_in_use"`
	Acquires          int64   `json:"lease_acquires"`
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

func (s *server) stats(w *respWriter, r *request) {
	if r.method != methodGet {
		writeErr(w, statusMethodNotAllowed, "GET only", false, 0)
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
