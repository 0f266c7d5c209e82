package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stronglin/internal/cluster"
	"stronglin/internal/prim"
)

// fastHealth is a probe config tests drive manually (Sweep) or on a tight
// loop: single-probe transitions keep failover deterministic per sweep.
func fastHealth() cluster.HealthConfig {
	return cluster.HealthConfig{
		Interval:  20 * time.Millisecond,
		Timeout:   200 * time.Millisecond,
		DownAfter: 1,
		UpAfter:   1,
	}
}

func newTestFrontend(t testing.TB, backends []string, h cluster.HealthConfig) *frontend {
	return mustFrontend(t, frontendConfig{
		backends:      backends,
		routeTimeout:  time.Second,
		retries:       4,
		health:        h,
		drain:         100 * time.Millisecond,
		degradedReads: true,
		slots:         16,
	})
}

func mustFrontend(t testing.TB, cfg frontendConfig) *frontend {
	t.Helper()
	f, err := newFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// feReq sends one request to the server listening at base and records its
// answer.
func feReq(t testing.TB, base, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	return genReq(t, base, method, target, "")
}

func feValue(t *testing.T, rec *httptest.ResponseRecorder) int64 {
	t.Helper()
	var v struct {
		Value int64 `json:"value"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v.Value
}

// TestFrontendRoutesAndFailsOver is the deterministic failover test: three
// real single-node backends, manual health sweeps, one killed owner. The
// frontend must move ownership (fence, drain, seed, install), keep every
// acked write, and answer reads from exactly one owner throughout.
func TestFrontendRoutesAndFailsOver(t *testing.T) {
	ctx := context.Background()
	var urls []string
	var servers []*testServer
	for i := 0; i < 3; i++ {
		ts := startWire(t, newServer(4, 2, 0).wire())
		defer ts.Close()
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	f := newTestFrontend(t, urls, fastHealth())
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL

	for i := 0; i < 5; i++ {
		if rec := feReq(t, h, http.MethodPost, "/counter/inc"); rec.Code != http.StatusOK {
			t.Fatalf("inc %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if rec := feReq(t, h, http.MethodPost, "/maxreg?v=7"); rec.Code != http.StatusOK {
		t.Fatalf("maxreg write: %d %s", rec.Code, rec.Body.String())
	}
	if rec := feReq(t, h, http.MethodPost, "/gset?x=3"); rec.Code != http.StatusOK {
		t.Fatalf("gset add: %d %s", rec.Code, rec.Body.String())
	}
	if got := feValue(t, feReq(t, h, http.MethodGet, "/counter")); got != 5 {
		t.Fatalf("counter before failover = %d, want 5", got)
	}
	if f.ledgers["counter_inc"].value(args{}) != 5 {
		t.Fatalf("acked ledger = %d, want 5", f.ledgers["counter_inc"].value(args{}))
	}

	// Kill the counter's owner and let one sweep + reconcile move it.
	owner, genBefore, settled := f.tb.Owner(thread1, "counter")
	if !settled || owner < 0 {
		t.Fatalf("counter unowned before failover: owner=%d settled=%v", owner, settled)
	}
	servers[owner].Close()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)

	newOwner, genAfter, settled := f.tb.Owner(thread1, "counter")
	if !settled {
		t.Fatalf("counter still mid-cutover after reconcile")
	}
	if newOwner == owner {
		t.Fatalf("ownership did not move off dead backend %d", owner)
	}
	if genAfter <= genBefore {
		t.Fatalf("fence generation did not advance: %d -> %d", genBefore, genAfter)
	}

	// Every acked write survived the crash handoff via the ledgers.
	if got := feValue(t, feReq(t, h, http.MethodGet, "/counter")); got != 5 {
		t.Fatalf("counter after failover = %d, want 5 (lost acked updates)", got)
	}
	if got := feValue(t, feReq(t, h, http.MethodGet, "/maxreg")); got != 7 {
		t.Fatalf("maxreg after failover = %d, want 7", got)
	}
	rec := feReq(t, h, http.MethodGet, "/gset?x=3")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "true") {
		t.Fatalf("gset membership after failover: %d %s", rec.Code, rec.Body.String())
	}
	if rec := feReq(t, h, http.MethodPost, "/counter/inc"); rec.Code != http.StatusOK {
		t.Fatalf("inc after failover: %d %s", rec.Code, rec.Body.String())
	}
	if got := feValue(t, feReq(t, h, http.MethodGet, "/counter")); got != 6 {
		t.Fatalf("counter after post-failover inc = %d, want 6", got)
	}

	st := f.snapshotStats()
	if st.Handoffs < 4 { // 3 initial installs + at least the failover
		t.Fatalf("handoffs = %d, want >= 4", st.Handoffs)
	}
	if st.Objects["counter"].Owner != newOwner {
		t.Fatalf("stats owner %d != table owner %d", st.Objects["counter"].Owner, newOwner)
	}
}

// TestFrontendDegradedReads: with every backend dead, reads answer from the
// acked ledger under X-SL-Degraded, and writes refuse 503-retryable with the
// structured body — never a silent ack without an owner.
func TestFrontendDegradedReads(t *testing.T) {
	ctx := context.Background()
	var urls []string
	var servers []*testServer
	for i := 0; i < 2; i++ {
		ts := startWire(t, newServer(4, 2, 0).wire())
		defer ts.Close()
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	f := newTestFrontend(t, urls, fastHealth())
	f.cfg.retries = 1 // dead-pool refusals should not grind through a long budget
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL

	for i := 0; i < 3; i++ {
		if rec := feReq(t, h, http.MethodPost, "/counter/inc"); rec.Code != http.StatusOK {
			t.Fatalf("inc %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	feReq(t, h, http.MethodPost, "/gset?x=9")
	for _, ts := range servers {
		ts.Close()
	}
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx) // no candidates: ownership stays put, owner unreachable

	rec := feReq(t, h, http.MethodGet, "/counter")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded read: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-SL-Degraded") != "true" {
		t.Fatalf("degraded read not marked: headers %v", rec.Header())
	}
	if got := feValue(t, rec); got != 3 {
		t.Fatalf("degraded counter read = %d, want ledger 3", got)
	}
	rec = feReq(t, h, http.MethodGet, "/gset?x=9")
	if rec.Code != http.StatusOK || rec.Header().Get("X-SL-Degraded") != "true" {
		t.Fatalf("degraded gset read: %d, headers %v", rec.Code, rec.Header())
	}

	rec = feReq(t, h, http.MethodPost, "/counter/inc")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write with dead pool = %d, want 503", rec.Code)
	}
	var body struct {
		Error             string `json:"error"`
		Retryable         bool   `json:"retryable"`
		RetryAfterSeconds int64  `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("503 body %q: %v", rec.Body.String(), err)
	}
	if !body.Retryable {
		t.Fatalf("dead-pool write refusal must be retryable: %+v", body)
	}
	if f.ledgers["counter_inc"].value(args{}) != 3 {
		t.Fatalf("refused write mutated the ledger: %d", f.ledgers["counter_inc"].value(args{}))
	}
	if f.degraded.Load() < 2 {
		t.Fatalf("degraded reads counter = %d, want >= 2", f.degraded.Load())
	}
}

// TestFrontendDegradedEmptySet: a degraded listing of a set with no acked
// add is byte for byte what its owner answers, directly or routed:
// {"elems":null}.
func TestFrontendDegradedEmptySet(t *testing.T) {
	ctx := context.Background()
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := newTestFrontend(t, []string{ts.URL}, fastHealth())
	f.cfg.retries = 1
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL
	direct := feReq(t, ts.URL, http.MethodGet, "/gset").Body.String()
	routed := feReq(t, h, http.MethodGet, "/gset").Body.String()
	ts.Close()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)

	rec := feReq(t, h, http.MethodGet, "/gset")
	if rec.Code != http.StatusOK || rec.Header().Get("X-SL-Degraded") != "true" {
		t.Fatalf("degraded listing: %d, headers %v", rec.Code, rec.Header())
	}
	if got := rec.Body.String(); got != direct || got != routed {
		t.Fatalf("degraded listing %q; the owner answers %q directly, %q routed", got, direct, routed)
	}
}

// TestFrontendForwardsBackendErrors: a non-retryable backend refusal (bad
// parameter) must come back with the backend's status and the uniform shape,
// not be retried into a 503.
func TestFrontendForwardsBackendErrors(t *testing.T) {
	ctx := context.Background()
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := newTestFrontend(t, []string{ts.URL}, fastHealth())
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL

	rec := feReq(t, h, http.MethodPost, "/maxreg?v=notanumber")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad maxreg value = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	assertErrShape(t, rec, false)
	if f.retriesTotal.Load() != 0 {
		t.Fatalf("non-retryable error was retried %d times", f.retriesTotal.Load())
	}
	if f.ledgers["maxreg_write"].value(args{}) != 0 {
		t.Fatalf("refused write folded into ledger: %d", f.ledgers["maxreg_write"].value(args{}))
	}
}

// TestFrontendLongRetryBudget is the backoff-overflow regression: with a
// retry budget past 41 attempts the doubled backoff used to wrap negative,
// slip under the 250ms cap and panic rand.Int63n, so net/http dropped the
// connection instead of answering. A write refused retryable on every
// attempt must still end in the uniform retryable 503.
func TestFrontendLongRetryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spends ~10s of capped backoff")
	}
	ws := newServer(4, 2, 0).wire()
	inner := ws.handle
	ws.handle = func(w *respWriter, r *request) {
		if r.path == "/counter/inc" {
			writeErr(w, http.StatusServiceUnavailable, "always refusing", true, 0)
			return
		}
		inner(w, r)
	}
	be := startWire(t, ws)
	defer be.Close()
	f := newTestFrontend(t, []string{be.URL}, fastHealth())
	f.cfg.retries = 45
	ctx := context.Background()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	fe := startWire(t, f.wire())
	defer fe.Close()

	resp, err := http.Post(fe.URL+"/counter/inc", "", nil)
	if err != nil {
		t.Fatalf("POST /counter/inc through a 45-retry budget: %v", err)
	}
	rec := record(t, resp)
	resp.Body.Close()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	assertErrShape(t, rec, true)
	if got := f.retriesTotal.Load(); got != 45 {
		t.Fatalf("retries = %d, want the whole budget of 45", got)
	}
}

// TestFrontendRoutesKeyedAndFailsOver drives the keyed universe through the
// routing tier: /kgset/* and /map/* route by key partition, acks fold into
// the keyed ledgers, and killing a partition's owner moves it with every
// acked key intact (seeded from the ledger — the keyed objects have no
// enumeration endpoint, so the ledger IS the seed).
func TestFrontendRoutesKeyedAndFailsOver(t *testing.T) {
	ctx := context.Background()
	var urls []string
	var servers []*testServer
	for i := 0; i < 3; i++ {
		ts := startWire(t, newServer(4, 2, 0).wire())
		defer ts.Close()
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	f := newTestFrontend(t, urls, fastHealth())
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL

	for _, tc := range []struct {
		method, target string
		want           int
	}{
		{http.MethodPost, "/kgset/add?k=alpha", http.StatusOK},
		{http.MethodPost, "/kgset/add?k=beta", http.StatusOK},
		{http.MethodPost, "/map/inc?k=hits&d=3", http.StatusOK},
		{http.MethodPost, "/map/inc?k=hits", http.StatusOK}, // d defaults to 1
		{http.MethodPost, "/map/max?k=peak&v=9", http.StatusOK},
		{http.MethodGet, "/map/get?k=ghost", http.StatusNotFound},
		{http.MethodGet, "/map/get", http.StatusBadRequest},             // missing k
		{http.MethodPost, "/map/inc?k=hits&d=0", http.StatusBadRequest}, // backend's 400, forwarded
		{http.MethodPost, "/kgset/add", http.StatusBadRequest},
	} {
		if rec := feReq(t, h, tc.method, tc.target); rec.Code != tc.want {
			t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.target, rec.Code, tc.want, rec.Body.String())
		}
	}
	readKeyed := func(key string, wantVal int64, wantKind string) {
		t.Helper()
		rec := feReq(t, h, http.MethodGet, "/map/get?k="+key)
		if rec.Code != http.StatusOK {
			t.Fatalf("map get %s: %d %s", key, rec.Code, rec.Body.String())
		}
		var v struct {
			Value int64  `json:"value"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("map get %s body %q: %v", key, rec.Body.String(), err)
		}
		if v.Value != wantVal || v.Kind != wantKind {
			t.Fatalf("map get %s = %d/%s, want %d/%s", key, v.Value, v.Kind, wantVal, wantKind)
		}
	}
	member := func(key string, want bool) {
		t.Helper()
		rec := feReq(t, h, http.MethodGet, "/kgset/has?k="+key)
		if rec.Code != http.StatusOK {
			t.Fatalf("kgset has %s: %d %s", key, rec.Code, rec.Body.String())
		}
		var v struct {
			Member bool `json:"member"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("kgset has %s body %q: %v", key, rec.Body.String(), err)
		}
		if v.Member != want {
			t.Fatalf("kgset has %s = %v, want %v", key, v.Member, want)
		}
	}
	readKeyed("hits", 4, "counter")
	readKeyed("peak", 9, "max")
	member("alpha", true)
	member("ghost", false)

	// The acked ledgers carry exactly the acked history.
	if v, ok := f.ledgers["map_inc"].get(args{key: "hits"}); !ok || v != 4 {
		t.Fatalf("map inc ledger for hits = %d/%v, want 4", v, ok)
	}
	if v, ok := f.ledgers["map_max"].get(args{key: "peak"}); !ok || v != 9 {
		t.Fatalf("map max ledger for peak = %d/%v, want 9", v, ok)
	}
	_, alpha := f.ledgers["kgset_add"].get(args{key: "alpha", n: 1})
	_, ghost := f.ledgers["kgset_add"].get(args{key: "ghost", n: 1})
	if !alpha || ghost {
		t.Fatalf("kgset ledger wrong: alpha=%v ghost=%v", alpha, ghost)
	}

	// Kill the owner of hits' map partition; the reconciler must move the
	// partition and reseed it from the keyed ledger.
	route := fmt.Sprintf("map.p%d", keyedPartition("hits"))
	owner, genBefore, settled := f.tb.Owner(thread1, route)
	if !settled || owner < 0 {
		t.Fatalf("%s unowned before failover: owner=%d settled=%v", route, owner, settled)
	}
	servers[owner].Close()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	newOwner, genAfter, settled := f.tb.Owner(thread1, route)
	if !settled || newOwner == owner || genAfter <= genBefore {
		t.Fatalf("%s did not move: %d@%d -> %d@%d settled=%v", route, owner, genBefore, newOwner, genAfter, settled)
	}

	// Every acked keyed write survived — including the ones whose partitions
	// happened to live on the killed backend too.
	readKeyed("hits", 4, "counter")
	readKeyed("peak", 9, "max")
	member("alpha", true)
	member("beta", true)
	if rec := feReq(t, h, http.MethodPost, "/map/inc?k=hits&d=2"); rec.Code != http.StatusOK {
		t.Fatalf("post-failover inc: %d %s", rec.Code, rec.Body.String())
	}
	readKeyed("hits", 6, "counter")

	st := f.snapshotStats()
	if st.KGSetLedgerKeys != 2 || st.KMapLedgerKeys != 2 {
		t.Fatalf("ledger sizes = kgset %d, kmap %d, want 2 and 2", st.KGSetLedgerKeys, st.KMapLedgerKeys)
	}
}

// TestFrontendDegradedKeyedReads: with the whole pool dead, /kgset/has and
// /map/get degrade to the keyed ledgers under X-SL-Degraded; a key with no
// acked write answers the same 404 the owner would give.
func TestFrontendDegradedKeyedReads(t *testing.T) {
	ctx := context.Background()
	ts := startWire(t, newServer(4, 2, 0).wire())
	f := newTestFrontend(t, []string{ts.URL}, fastHealth())
	f.cfg.retries = 1
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL

	if rec := feReq(t, h, http.MethodPost, "/kgset/add?k=survivor"); rec.Code != http.StatusOK {
		t.Fatalf("add: %d %s", rec.Code, rec.Body.String())
	}
	if rec := feReq(t, h, http.MethodPost, "/map/inc?k=hits&d=5"); rec.Code != http.StatusOK {
		t.Fatalf("inc: %d %s", rec.Code, rec.Body.String())
	}
	ts.Close()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)

	rec := feReq(t, h, http.MethodGet, "/kgset/has?k=survivor")
	if rec.Code != http.StatusOK || rec.Header().Get("X-SL-Degraded") != "true" ||
		!strings.Contains(rec.Body.String(), "true") {
		t.Fatalf("degraded kgset has: %d %v %s", rec.Code, rec.Header(), rec.Body.String())
	}
	rec = feReq(t, h, http.MethodGet, "/map/get?k=hits")
	if rec.Code != http.StatusOK || rec.Header().Get("X-SL-Degraded") != "true" ||
		!strings.Contains(rec.Body.String(), "5") {
		t.Fatalf("degraded map get: %d %v %s", rec.Code, rec.Header(), rec.Body.String())
	}
	rec = feReq(t, h, http.MethodGet, "/map/get?k=ghost")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("degraded map get of unknown key = %d, want 404", rec.Code)
	}
	rec = feReq(t, h, http.MethodPost, "/map/inc?k=hits")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("keyed write with dead pool = %d, want 503", rec.Code)
	}
	assertErrShape(t, rec, true)
	if v := f.ledgers["map_inc"].value(args{key: "hits"}); v != 5 {
		t.Fatalf("refused write mutated the keyed ledger: %d", v)
	}
}

// TestFrontendMetricsEndpoint is the frontend's golden-name check, and pins
// that the dial counter counts dials, not round trips.
func TestFrontendMetricsEndpoint(t *testing.T) {
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := newTestFrontend(t, []string{ts.URL}, fastHealth())
	ctx := context.Background()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL
	for i := 0; i < 20; i++ {
		if rec := feReq(t, h, http.MethodPost, "/counter/inc"); rec.Code != http.StatusOK {
			t.Fatalf("inc %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	text := feReq(t, h, http.MethodGet, "/metrics").Body.String()
	for _, name := range f.reg.SortedNames() {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing a TYPE line in /metrics", name)
		}
	}
	for _, sample := range []string{
		"slfront_requests_total 20",
		"slfront_request_duration_ns_count 20",
		"cluster_handoffs_total 11", // one initial install per routed key
		"slfront_backend_dials_total 1",
	} {
		if !strings.Contains(text, "\n"+sample+"\n") {
			t.Errorf("want sample line %q in /metrics", sample)
		}
	}
}

// TestFrontendLedgerEntriesGauges: N acked keyed writes of distinct keys
// through a frontend read N on their ledgers' /metrics gauges; a repeat
// write of a key folds into its entry, and a write kind never acked reads 0.
func TestFrontendLedgerEntriesGauges(t *testing.T) {
	const n = 25
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := newTestFrontend(t, []string{ts.URL}, fastHealth())
	ctx := context.Background()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			for _, target := range []string{fmt.Sprintf("/kgset/add?k=s%d", i), fmt.Sprintf("/map/inc?k=c%d&d=2", i)} {
				if rec := feReq(t, h, http.MethodPost, target); rec.Code != http.StatusOK {
					t.Fatalf("POST %s = %d %s", target, rec.Code, rec.Body.String())
				}
			}
		}
	}
	text := feReq(t, h, http.MethodGet, "/metrics").Body.String()
	for _, sample := range []string{
		fmt.Sprintf("slfront_kgset_add_ledger_entries %d", n),
		fmt.Sprintf("slfront_map_inc_ledger_entries %d", n),
		"slfront_map_max_ledger_entries 0",
	} {
		if !strings.Contains(text, "\n"+sample+"\n") {
			t.Errorf("want sample line %q in /metrics", sample)
		}
	}
}

// TestKeyedRoutesCoverEveryPartition: every partition a key can hash to has
// a route the ownership table carries, every route the frontend carries is
// an object the backend's /fence accepts, and every fenceable object is
// routed.
func TestKeyedRoutesCoverEveryPartition(t *testing.T) {
	f := wireFrontend(t, time.Second)
	carried := make(map[string]bool)
	for _, k := range f.tb.Keys() {
		carried[k] = true
	}
	hit := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		p := keyedPartition(key)
		if p < 0 || p >= keyPartitions {
			t.Fatalf("keyedPartition = %d, outside [0, %d)", p, keyPartitions)
		}
		hit[p] = true
		for _, d := range objects {
			if !d.keyed {
				continue
			}
			if r := d.route(args{key: key}); !carried[r] || r != fmt.Sprintf("%s.p%d", d.object, p) {
				t.Fatalf("%s %s: key %q routes to %q, want the carried partition %d", d.method, d.path, key, r, p)
			}
		}
	}
	if len(hit) != keyPartitions {
		t.Fatalf("1000 keys hit %d of %d partitions", len(hit), keyPartitions)
	}

	srv := newServer(4, 2, 0)
	h := startWire(t, srv.wire()).URL
	for k := range carried {
		if rec := feReq(t, h, http.MethodPost, "/fence?obj="+neturl.QueryEscape(k)+"&gen=0"); rec.Code != http.StatusOK {
			t.Errorf("routed key %q: backend /fence answers %d %s", k, rec.Code, rec.Body.String())
		}
	}
	for k := range srv.fences {
		if !carried[k] {
			t.Errorf("fenceable object %q is not routed by the frontend", k)
		}
	}
	if len(srv.fences) != len(carried) {
		t.Errorf("backend fences %d objects, frontend routes %d", len(srv.fences), len(carried))
	}
}

// thread1 matches the thread serveRouted uses; tests peek the table with it.
var thread1 = prim.RealThread(1)

// poolBackend is a restartable real-listener backend for the chaos test:
// kill drops the listener and every in-flight request (a crash, not a
// drain), restart binds a FRESH server to the same address — a rebooted
// process with empty state, which is exactly what makes lost-update bugs
// visible.
type poolBackend struct {
	addr string
	gate func(*request) // when set, runs before every request of every incarnation
	mu   sync.Mutex
	srv  *wireServer
}

func startPoolBackend(t *testing.T, addr string) *poolBackend {
	t.Helper()
	b := &poolBackend{addr: addr}
	b.restart(t)
	return b
}

func (b *poolBackend) restart(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	// The just-killed listener's port can linger for a beat; retry briefly.
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", b.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", b.addr, err)
	}
	if b.addr == "127.0.0.1:0" {
		b.addr = ln.Addr().String()
	}
	srv := newServer(4, 2, 0).wire()
	if gate, h := b.gate, srv.handle; gate != nil {
		srv.handle = func(w *respWriter, r *request) {
			gate(r)
			h(w, r)
		}
	}
	go srv.serve(ln)
	b.mu.Lock()
	b.srv = srv
	b.mu.Unlock()
}

func (b *poolBackend) kill() {
	b.mu.Lock()
	srv := b.srv
	b.mu.Unlock()
	if srv != nil {
		srv.close()
	}
}

// TestFrontendChaosKillRestart is the live soak: three real backends, the
// frontend running its own health loop and reconciler, concurrent clients
// hammering /counter/inc through it, and the counter's owner killed dead
// mid-soak then rebooted empty. Invariant at the bar: ZERO LOST ACKED
// INCREMENTS — the final counter is >= the number of 200s the clients got
// (phantoms from raced handoffs may push it above, never below) — and the
// acked ledger equals the 200 count exactly. The kill must be noticed (more
// handoffs than the initial installs), and the backend pools must keep
// reusing connections through it (fewer dials than a tenth of the acks).
func TestFrontendChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos soak")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var backends []*poolBackend
	var urls []string
	for i := 0; i < 3; i++ {
		b := startPoolBackend(t, "127.0.0.1:0")
		defer b.kill()
		backends = append(backends, b)
		urls = append(urls, "http://"+b.addr)
	}
	f := mustFrontend(t, frontendConfig{
		backends:     urls,
		routeTimeout: 500 * time.Millisecond,
		retries:      6,
		health: cluster.HealthConfig{
			Interval:  20 * time.Millisecond,
			Timeout:   150 * time.Millisecond,
			DownAfter: 2,
			UpAfter:   1,
		},
		drain:         50 * time.Millisecond,
		degradedReads: true,
		slots:         32,
	})
	f.start(ctx)
	fe := startWire(t, f.wire())
	defer fe.Close()

	var acked atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 2 * time.Second}
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Post(fe.URL+"/counter/inc", "", nil)
				if err != nil {
					continue
				}
				ok := resp.StatusCode == http.StatusOK
				drainBody(resp)
				if ok {
					acked.Add(1)
				}
			}
		}()
	}

	// Let traffic flow, then crash the counter's owner mid-soak.
	time.Sleep(400 * time.Millisecond)
	installs := f.handoffs.Load() // the initial install of every routed key
	owner, _, _ := f.tb.Owner(thread1, "counter")
	if owner < 0 {
		t.Fatalf("counter unowned at kill time")
	}
	backends[owner].kill()
	time.Sleep(400 * time.Millisecond) // failover + post-failover traffic
	backends[owner].restart(t)         // reboot empty; health readmits it
	time.Sleep(400 * time.Millisecond)

	stop.Store(true)
	wg.Wait()

	total := acked.Load()
	if total == 0 {
		t.Fatalf("no increment was ever acked")
	}
	if got := f.ledgers["counter_inc"].value(args{}); got != total {
		t.Fatalf("acked ledger %d != acked responses %d", got, total)
	}

	// The settled owner's counter must carry every acked increment. Retry
	// the read briefly: the readmitted backend may still be mid-handoff.
	var final int64
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := client.Get(fe.URL + "/counter")
		if err == nil {
			var v struct {
				Value int64 `json:"value"`
			}
			degradedAnswer := resp.Header.Get("X-SL-Degraded") == "true"
			decodeErr := json.NewDecoder(resp.Body).Decode(&v)
			drainBody(resp)
			if decodeErr == nil && resp.StatusCode == http.StatusOK && !degradedAnswer {
				final = v.Value
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no authoritative read within deadline")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final < total {
		t.Fatalf("LOST UPDATE: final counter %d < acked increments %d", final, total)
	}

	st := f.snapshotStats()
	if st.Handoffs <= installs {
		t.Fatalf("handoffs = %d, no more than the %d initial installs (kill went unnoticed?)", st.Handoffs, installs)
	}
	// Backend connections are pooled: the kill and the reboot cost redials,
	// but a dial per request would mean the pool stopped reusing them.
	if dials := f.dials.Load(); dials >= total/10 {
		t.Fatalf("backend dials = %d for %d acked requests, want fewer than a tenth", dials, total)
	}
	t.Logf("chaos soak: acked=%d final=%d phantoms=%d handoffs=%d steals=%d raced=%d retries=%d dials=%d",
		total, final, final-total, st.Handoffs, st.Steals, st.Raced, st.Retries, f.dials.Load())
}

// drainBody keeps the keep-alive connection reusable under load.
func drainBody(resp *http.Response) {
	if resp != nil && resp.Body != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestReconcileRestartMidPass is the routed "404 after an acked write"
// regression. A reconcile pass moves a dead owner's keys one at a time; the
// owner reboots empty on its address while the pass is held seeding an
// earlier key. A keyed read routed to a partition still waiting its turn
// must not be answered by the empty process: it reads the acked value,
// degraded from the ledger while the partition is fenced and authoritative
// once the pass has moved it.
func TestReconcileRestartMidPass(t *testing.T) {
	ctx := context.Background()
	var holdAt atomic.Int32 // index of the backend whose routed requests park; -1 none
	holdAt.Store(-1)
	held, release := make(chan struct{}, 1), make(chan struct{})
	var backends []*poolBackend
	var urls []string
	for i := 0; i < 2; i++ {
		b := &poolBackend{addr: "127.0.0.1:0", gate: func(r *request) {
			if r.gen != "" && holdAt.Load() == int32(i) {
				select {
				case held <- struct{}{}:
				default:
				}
				<-release
			}
		}}
		b.restart(t)
		defer b.kill()
		backends = append(backends, b)
		urls = append(urls, "http://"+b.addr)
	}
	f := newTestFrontend(t, urls, fastHealth())
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL

	// One acked write on every route key, so every handoff seeds.
	keyOf := map[string]string{} // route key -> a key acked in it
	for i := 0; len(keyOf) < 2*keyPartitions; i++ {
		k := fmt.Sprintf("key-%d", i)
		p := keyedPartition(k)
		if keyOf[fmt.Sprintf("map.p%d", p)] != "" {
			continue
		}
		keyOf[fmt.Sprintf("map.p%d", p)], keyOf[fmt.Sprintf("kgset.p%d", p)] = k, k
		for _, target := range []string{"/map/inc?k=" + k + "&d=5", "/kgset/add?k=" + k} {
			if rec := feReq(t, h, http.MethodPost, target); rec.Code != http.StatusOK {
				t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body.String())
			}
		}
	}
	for _, target := range []string{"/counter/inc", "/maxreg?v=3", "/gset?x=1"} {
		if rec := feReq(t, h, http.MethodPost, target); rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body.String())
		}
	}

	// A keyed partition whose owner owns an earlier key of the pass.
	owned := map[int]int{}
	dead, route := -1, ""
	for _, key := range f.tb.Keys() {
		owner, _, _ := f.tb.Owner(thread1, key)
		if owned[owner] > 0 && keyOf[key] != "" {
			dead, route = owner, key
			break
		}
		owned[owner]++
	}
	if dead < 0 {
		t.Fatal("no keyed partition behind another key of its owner")
	}
	read := "/map/get?k=" + keyOf[route]
	want := `{"kind":"counter","value":5}`
	if strings.HasPrefix(route, "kgset") {
		read, want = "/kgset/has?k="+keyOf[route], `{"member":true}`
	}

	holdAt.Store(int32(1 - dead))
	backends[dead].kill()
	f.health.Sweep(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.reconcileOnce(ctx)
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the reconcile pass never seeded the successor")
	}
	backends[dead].restart(t) // rebooted empty, every fence floor at 0

	rec := feReq(t, h, http.MethodGet, read)
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != want {
		t.Errorf("mid-pass %s (%s) = %d %s, want %s", read, route, rec.Code, rec.Body.String(), want)
	}
	holdAt.Store(-1)
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the reconcile pass did not finish")
	}
	rec = feReq(t, h, http.MethodGet, read)
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != want || rec.Header().Get("X-SL-Degraded") != "" {
		t.Fatalf("settled %s = %d %v %s, want an authoritative %s", read, rec.Code, rec.Header(), rec.Body.String(), want)
	}
}

// FuzzFrontendServe drives the frontend's serve path with arbitrary
// requests over one in-process backend: a method, a request-target and an
// X-SL-Gen value, parsed as the data listener parses a head. No answer may
// be a 5xx other than the retryable 503, and every non-200 carries the
// uniform error body, whether the frontend refuses the request itself or
// forwards a backend's refusal.
func FuzzFrontendServe(f *testing.F) {
	for _, seed := range [][3]string{
		{"POST", "/counter/inc", ""},
		{"GET", "/counter", "7"},
		{"POST", "/counter/add?d=5", ""},
		{"POST", "/maxreg?v=1024", ""},
		{"POST", "/maxreg?v=99999999999999999999", ""},
		{"GET", "/gset?x=-1", ""},
		{"GET", "/gset", ""},
		{"POST", "/map/inc?k=a&d=3", "zebra"},
		{"POST", "/map/max?k=a&v=2", ""},
		{"GET", "/map/get?k=%zz", ""},
		{"GET", "/map/get?k=never", ""},
		{"POST", "/kgset/add?k=" + strings.Repeat("k", 300), ""},
		{"GET", "/kgset/has?k=a+b", ""},
		{"POST", "/fence?obj=counter&gen=9", ""},
		{"GET", "/snapshot", ""},
		{"DELETE", "/maxreg", ""},
		{"HEAD", "/stats", ""},
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	ts := startWire(f, newServer(4, 2, 1023).wire())
	fe := wireFrontend(f, time.Second, ts.URL)
	ctx := context.Background()
	fe.health.Sweep(ctx)
	fe.reconcileOnce(ctx)
	f.Fuzz(func(t *testing.T, method, target, gen string) {
		head := method + " " + target + " HTTP/1.1\r\nHost: x\r\n"
		if gen != "" {
			head += "X-SL-Gen: " + gen + "\r\n"
		}
		head += "\r\n"
		req := request{ctx: ctx}
		if code, _ := parseHead([]byte(head), &req); code != 0 || headLen([]byte(head)) != len(head) {
			return // the data listener refuses it before any handler runs
		}
		w := respWriter{code: statusOK}
		fe.serve(&w, &req)
		if w.code >= 500 && w.code != statusServiceUnavailable {
			t.Fatalf("%s %q: status %d %q", method, target, w.code, w.body)
		}
		if w.code == statusOK {
			return
		}
		var e errShape
		dec := json.NewDecoder(bytes.NewReader(w.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil || e.Error == nil || e.Retryable == nil || e.RetryAfterSeconds == nil {
			t.Fatalf("%s %q: status %d with body %q, want the uniform error shape", method, target, w.code, w.body)
		}
		if w.code == statusServiceUnavailable && !*e.Retryable {
			t.Fatalf("%s %q: a 503 that is not retryable: %q", method, target, w.body)
		}
	})
}
