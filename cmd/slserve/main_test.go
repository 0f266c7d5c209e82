package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEndpoints(t *testing.T) {
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()

	post := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	for i := 0; i < 3; i++ {
		post("/counter/inc")
	}
	if v := get("/counter")["value"].(float64); v != 3 {
		t.Fatalf("counter = %v, want 3", v)
	}

	post("/maxreg?v=41")
	post("/maxreg?v=7")
	if v := get("/maxreg")["value"].(float64); v != 41 {
		t.Fatalf("maxreg = %v, want 41", v)
	}

	post("/gset?x=5")
	if m := get("/gset?x=5")["member"].(bool); !m {
		t.Fatal("gset should contain 5")
	}
	if m := get("/gset?x=6")["member"].(bool); m {
		t.Fatal("gset should not contain 6")
	}
	elems := get("/gset")["elems"].([]any)
	if len(elems) != 1 || elems[0].(float64) != 5 {
		t.Fatalf("gset elems = %v, want [5]", elems)
	}

	// Snapshot: the component written lands in the view (the lane depends on
	// which lease the request drew, so assert on the multiset of values).
	post("/snapshot?v=9")
	view := get("/snapshot")["view"].([]any)
	if len(view) != 4 {
		t.Fatalf("snapshot view has %d components, want 4", len(view))
	}
	nines := 0
	for _, c := range view {
		if c.(float64) == 9 {
			nines++
		}
	}
	if nines != 1 {
		t.Fatalf("snapshot view = %v, want exactly one component 9", view)
	}

	// Multi-word snapshot: same surface, k-XADD engine.
	post("/msnapshot?v=6")
	mview := get("/msnapshot")["view"].([]any)
	if len(mview) != 4 {
		t.Fatalf("msnapshot view has %d components, want 4", len(mview))
	}
	sixes := 0
	for _, c := range mview {
		if c.(float64) == 6 {
			sixes++
		}
	}
	if sixes != 1 {
		t.Fatalf("msnapshot view = %v, want exactly one component 6", mview)
	}

	// Clock: two ticks then a read (the read is itself an operation, but
	// reports the tick count).
	post("/clock/tick")
	post("/clock/tick")
	if v := get("/clock")["value"].(float64); v != 2 {
		t.Fatalf("clock = %v, want 2", v)
	}

	stats := get("/stats")
	if got := stats["counter_inc"].(float64); got != 3 {
		t.Fatalf("stats counter_inc = %v, want 3", got)
	}
	if got := stats["snapshot_update"].(float64); got != 1 {
		t.Fatalf("stats snapshot_update = %v, want 1", got)
	}
	if got := stats["msnapshot_update"].(float64); got != 1 {
		t.Fatalf("stats msnapshot_update = %v, want 1", got)
	}
	// /snapshot at -bound 0 declares the 2²⁰ request cap: 4 lanes of 21-bit
	// fields, two to a word next to the sequence field, is 2 XADD words.
	if eng, words := stats["snapshot_engine"].(string), stats["snapshot_words"].(float64); eng != "multiword" || words != 2 {
		t.Fatalf("stats snapshot engine = %q on %v words, want multiword on 2", eng, words)
	}
	// 4 lanes with the ⌈lanes/2⌉-word budget: 2 words, 31-bit fields.
	if eng := stats["msnapshot_engine"].(string); eng != "multiword" {
		t.Fatalf("stats msnapshot_engine = %q, want multiword", eng)
	}
	if words := stats["msnapshot_words"].(float64); words != 2 {
		t.Fatalf("stats msnapshot_words = %v, want 2", words)
	}
	if got := stats["clock_tick"].(float64); got != 2 {
		t.Fatalf("stats clock_tick = %v, want 2", got)
	}
	if got := stats["clock_used"].(float64); got != 3 { // 2 ticks + 1 read
		t.Fatalf("stats clock_used = %v, want 3", got)
	}
	if packed := stats["clock_packed"].(bool); !packed {
		t.Fatal("the clock must always run on a machine-word snapshot engine")
	}
	if eng := stats["clock_engine"].(string); eng != "multiword" {
		t.Fatalf("stats clock_engine = %q, want multiword at 4 lanes", eng)
	}
	if got := stats["lanes_in_use"].(float64); got != 0 {
		t.Fatalf("stats lanes_in_use = %v, want 0", got)
	}
	// Helping telemetry is reported per object; a sequential exchange never
	// starves a read, so the counts are present and zero.
	for _, key := range []string{"counter_help", "maxreg_help", "gset_help", "snapshot_help", "msnapshot_help"} {
		h, ok := stats[key].(map[string]any)
		if !ok {
			t.Fatalf("stats %s missing or malformed: %v", key, stats[key])
		}
		if h["deposits"].(float64) != 0 || h["adopts"].(float64) != 0 {
			t.Fatalf("stats %s = %v, want zero helping under sequential load", key, h)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := startWire(t, newServer(2, 1, 0).wire())
	defer ts.Close()
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/counter/inc", http.StatusMethodNotAllowed},
		{http.MethodPost, "/maxreg", http.StatusBadRequest},                    // missing v
		{http.MethodPost, "/maxreg?v=-3", http.StatusBadRequest},               // negative
		{http.MethodPost, "/maxreg?v=99999999999", http.StatusBadRequest},      // over maxValue: would OOM the unary encoding
		{http.MethodGet, "/gset?x=9000000000000000000", http.StatusBadRequest}, // near int64 max: would overflow the bit index
		{http.MethodPost, "/gset?x=banana", http.StatusBadRequest},             // not an int
		{http.MethodDelete, "/gset?x=1", http.StatusMethodNotAllowed},
		{http.MethodPost, "/snapshot", http.StatusBadRequest},               // missing v
		{http.MethodPost, "/snapshot?v=-1", http.StatusBadRequest},          // negative
		{http.MethodPost, "/snapshot?v=99999999999", http.StatusBadRequest}, // over maxValue
		{http.MethodDelete, "/snapshot?v=1", http.StatusMethodNotAllowed},
		{http.MethodPost, "/msnapshot", http.StatusBadRequest},               // missing v
		{http.MethodPost, "/msnapshot?v=-1", http.StatusBadRequest},          // negative
		{http.MethodPost, "/msnapshot?v=99999999999", http.StatusBadRequest}, // over maxValue
		{http.MethodDelete, "/msnapshot?v=1", http.StatusMethodNotAllowed},
		{http.MethodGet, "/clock/tick", http.StatusMethodNotAllowed},
		{http.MethodPost, "/clock", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestBoundedServerPacked: with -bound the value-domain objects pack (the
// counter always does), out-of-domain requests are rejected, and in-domain
// traffic behaves identically to the wide server.
func TestBoundedServerPacked(t *testing.T) {
	// 4 lanes / 2 shards -> 2 lanes per shard; bound 30 -> 2 x 31 = 62 bits.
	srv := newServer(4, 2, 30)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	var stats statsSnapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if !stats.CounterPacked || !stats.MaxregPacked || !stats.GSetPacked {
		t.Fatalf("packed = (%v, %v, %v), want all true",
			stats.CounterPacked, stats.MaxregPacked, stats.GSetPacked)
	}
	// Snapshot: 4 lanes x FieldWidth(30)=5 bits = 20 <= 63 — packs too; with
	// the clock the whole serving surface is machine-word end to end.
	if !stats.SnapPacked || !stats.ClockPacked {
		t.Fatalf("snapshot/clock packed = (%v, %v), want both true",
			stats.SnapPacked, stats.ClockPacked)
	}
	if stats.MaxValue != 30 {
		t.Fatalf("max_value = %d, want 30", stats.MaxValue)
	}

	if resp, err = http.Post(ts.URL+"/maxreg?v=30", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bound write: status %d", resp.StatusCode)
	}
	if resp, err = http.Post(ts.URL+"/maxreg?v=31", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-bound write: status %d, want 400", resp.StatusCode)
	}
	// An out-of-bound snapshot write must be a client error (400), never a
	// 500 from the packed engine's bound panic.
	if resp, err = http.Post(ts.URL+"/snapshot?v=30", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bound snapshot write: status %d", resp.StatusCode)
	}
	if resp, err = http.Post(ts.URL+"/snapshot?v=31", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-bound snapshot write: status %d, want 400", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/maxreg"); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if got := out["value"].(float64); got != 30 {
		t.Fatalf("maxreg = %v, want 30", got)
	}
}

// TestHugeBoundKeepsRequestCap: a -bound too large to pack leaves the shards
// on wide registers, so the request cap must stay at the default instead of
// rising to the bound — otherwise one request could drive a gigantic unary
// allocation.
func TestHugeBoundKeepsRequestCap(t *testing.T) {
	srv := newServer(8, 4, 1<<40)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	var stats statsSnapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.MaxregPacked || stats.GSetPacked {
		t.Fatal("2^40 bound cannot pack the value-domain objects")
	}
	if stats.MaxValue != defaultMaxValue {
		t.Fatalf("max_value = %d, want the default cap %d", stats.MaxValue, defaultMaxValue)
	}
	if resp, err = http.Post(fmt.Sprintf("%s/maxreg?v=%d", ts.URL, int64(defaultMaxValue)+1), "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap write: status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint is the golden-name test: every metric the server
// registers must appear in the /metrics text, the document must parse as
// Prometheus 0.0.4 exposition (HELP/TYPE then samples), and after traffic the
// request counter and latency histogram must have moved.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(4, 2, 0)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	// Drive one request through every object so funcs have state to report.
	for _, p := range []string{"/counter/inc", "/maxreg?v=3", "/gset?x=1", "/snapshot?v=2", "/msnapshot?v=2", "/clock/tick"} {
		resp, err := http.Post(ts.URL+p, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Golden names: everything the registry knows is in the text.
	names := srv.reg.SortedNames()
	if len(names) < 30 {
		t.Fatalf("registry has only %d metrics, expected the full PR 6 catalog (30+)", len(names))
	}
	for _, name := range names {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing a TYPE line in /metrics", name)
		}
		if !strings.Contains(text, "# HELP "+name+" ") {
			t.Errorf("metric %s missing a HELP line in /metrics", name)
		}
	}
	// A few load-bearing names spelled out, so a silent registry rename fails
	// loudly here rather than in a dashboard.
	for _, name := range []string{
		"slserve_requests_total",
		"slserve_request_duration_ns_bucket", // histogram samples carry suffixes
		"slserve_request_duration_ns_count",
		"slserve_counter_help_deposits_total",
		"slserve_msnapshot_help_adopts_total",
		"slserve_msnapshot_retries_total",
		"slserve_msnapshot_pressure_raises_total",
		"slserve_snapshot_seq_watermark",
		"slserve_counter_epoch_announces",
		"slserve_clock_capacity",
		"slserve_clock_used",
		"slserve_lease_acquires_total",
		"slserve_lease_waits_total",
		"slserve_lanes_in_use",
		// The per-endpoint duration family.
		"slserve_endpoint_counter_inc_duration_ns_count",
		"slserve_endpoint_msnapshot_duration_ns_count",
	} {
		if !strings.Contains(text, "\n"+name+" ") && !strings.Contains(text, "\n"+name+"{") {
			t.Errorf("expected sample line for %s in /metrics", name)
		}
	}

	// Every non-comment line parses as `name{labels} value` with a numeric
	// value, and histograms carry the +Inf bucket.
	sawInf := false
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("non-numeric value in sample line %q: %v", line, err)
		}
		if strings.Contains(line, `le="+Inf"`) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("no +Inf histogram bucket in /metrics")
	}

	// The traffic above went through the instrumented mux: ticker counters
	// moved. (+1 for the /metrics scrape itself not yet recorded.)
	if n := srv.reqTotal.Load(); n < 6 {
		t.Fatalf("slserve_requests_total = %d after 6 requests", n)
	}
	if n := srv.reqDur.Count(); n < 6 {
		t.Fatalf("request duration histogram count = %d after 6 requests", n)
	}
}

// TestForcedAdoptTelemetry builds the server with a zero scan-retry budget —
// every contended combining read raises pressure immediately — drives a
// storm through the server's own lease pool (HTTP round-trips serialize the
// engine ops too much to collide), and asserts the PR 6 helping telemetry
// moves: retries and pressure raises on the multi-word snapshot, with
// deposits/adopts consistent. This is the end-to-end proof that the counters
// are wired to the protocol, not decorative.
func TestForcedAdoptTelemetry(t *testing.T) {
	// scanBudget 0: raise on the first failed round.
	srv := newServerCfg(4, 2, 0, 0, 0)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	// Long-lived leases, tight loops: per-op pool round-trips would space the
	// engine ops out so far that collects almost never collide.
	var wg sync.WaitGroup
	var stop atomic.Bool
	// Updater wall: half the lanes hammer announcing updates.
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := srv.pool.Acquire()
			defer l.Release()
			for v := int64(1); !stop.Load(); v++ {
				srv.msnap.Update(l.Thread(), v%1024)
			}
		}()
	}
	// Scanner minority: validated double collects against the wall.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := srv.pool.Acquire()
			defer l.Release()
			for !stop.Load() {
				srv.msnap.Scan(l.Thread())
			}
		}()
	}
	// Run until the counters move (on a single-core box interleaving only
	// happens at preemption points, so collisions are sparse); the deadline
	// only bounds a genuinely dead telemetry path.
	deadline := time.Now().Add(20 * time.Second)
	for {
		hs := srv.msnap.HelpStats()
		if hs.Retries > 0 && hs.Raises > 0 {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	hs := srv.msnap.HelpStats()
	t.Logf("msnapshot help stats under storm: %+v", hs)
	if hs.Retries == 0 {
		t.Fatal("zero scan retries under an msnapshot update storm — retry telemetry is dead")
	}
	if hs.Raises == 0 {
		t.Fatal("zero pressure raises with scan budget 0 under contention — raise telemetry is dead")
	}
	if hs.Deposits < hs.Adopts {
		t.Fatalf("adopts (%d) exceed deposits (%d)", hs.Adopts, hs.Deposits)
	}
	// The same counters flow through /stats and /metrics.
	body := metricsText(t, ts.URL)
	if !strings.Contains(body, "slserve_msnapshot_scan_rounds_count") {
		t.Fatal("scan-rounds histogram missing from /metrics")
	}
	if !strings.Contains(body, fmt.Sprintf("slserve_msnapshot_retries_total %d", hs.Retries)) {
		t.Fatalf("slserve_msnapshot_retries_total does not report %d", hs.Retries)
	}
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// denseRequests are the ten dense-object requests, a write then a read per
// object: counter, maxreg, gset, snapshot, msnapshot. A path ending in '='
// takes a value.
var denseRequests = [10]struct{ method, path string }{
	{http.MethodPost, "/counter/inc"}, {http.MethodGet, "/counter"},
	{http.MethodPost, "/maxreg?v="}, {http.MethodGet, "/maxreg"},
	{http.MethodPost, "/gset?x="}, {http.MethodGet, "/gset?x="},
	{http.MethodPost, "/snapshot?v="}, {http.MethodGet, "/snapshot"},
	{http.MethodPost, "/msnapshot?v="}, {http.MethodGet, "/msnapshot"},
}

// doDense issues denseRequests[op] against base with value v and fails
// unless the server answers 200.
func doDense(client *http.Client, base string, op int, v int64) error {
	d := denseRequests[op]
	target := base + d.path
	if strings.HasSuffix(d.path, "=") {
		target += strconv.FormatInt(v, 10)
	}
	req, err := http.NewRequest(d.method, target, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", d.method, target, resp.StatusCode)
	}
	return nil
}

// TestConcurrentClients floods the server with more concurrent clients than
// lanes — the load the pool exists to carry — and checks that no increment is
// lost. Run under -race this is the acceptance check for the traffic
// front-end.
func TestConcurrentClients(t *testing.T) {
	srv := newServer(4, 2, 0)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	const clients, reqs = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				if err := doDense(http.DefaultClient, ts.URL, i%len(denseRequests), int64(c*31+i)%256); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/counter")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	// Each client's i%10==0 requests increment: i in 0..24 hits 0,10,20 —
	// 3 per client.
	want := float64(clients * 3)
	if got := out["value"].(float64); got != want {
		t.Fatalf("counter after load = %v, want %v", got, want)
	}
}

// TestCoalescedIncsPreserveCount floods /counter/inc from concurrent
// clients, each request its own engine step: the final counter must equal
// the request count exactly — a lost or double-counted increment shows here.
func TestCoalescedIncsPreserveCount(t *testing.T) {
	srv := newServer(4, 2, 0)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	const clients, reqs = 24, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				resp, err := http.Post(ts.URL+"/counter/inc", "", nil)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("inc status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/counter")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if got := out["value"].(float64); got != clients*reqs {
		t.Fatalf("counter after concurrent flood = %v, want %d", got, clients*reqs)
	}
}

// TestClockCapacityExhaustion: the clock's budget is finite; requests past
// the TRUE budget — and only past it — get 503 (the budget is spent, the
// server is not broken: every other endpoint keeps answering). The
// production budget is ≥ 2³¹−1, so the test injects a 3-op budget through
// newServerClock — at 64 lanes, proving the gate works on the multi-word
// engine past the old 63-lane ceiling.
func TestClockCapacityExhaustion(t *testing.T) {
	srv := newServerClock(64, 1, 0, 3)
	if got := srv.clock.Capacity(); got != 3 {
		t.Fatalf("clock capacity = %d, want 3", got)
	}
	if eng := srv.clock.Engine(); eng != "multiword" {
		t.Fatalf("64-lane clock engine = %s, want multiword", eng)
	}
	ts := startWire(t, srv.wire())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/clock/tick", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/clock/tick", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity tick: status %d, want 503", resp.StatusCode)
	}
	// The rest of the server is unaffected.
	if resp, err = http.Post(ts.URL+"/counter/inc", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("counter after clock exhaustion: status %d", resp.StatusCode)
	}
}

// TestClockPackedPast63Lanes: past 63 lanes — where no single-word reference
// bound exists and earlier servers fell back to a wide unbounded clock — the
// multi-word engine keeps the clock machine-word-backed, with the 2⁴⁸−1
// budget the server's word-budget arithmetic grants (a word per lane =
// full-payload 48-bit reference fields).
func TestClockPackedPast63Lanes(t *testing.T) {
	srv := newServer(64, 1, 0)
	if eng := srv.clock.Engine(); eng != "multiword" {
		t.Fatalf("64-lane clock engine = %s, want multiword", eng)
	}
	if got, want := srv.clock.Capacity(), int64(1)<<48-1; got != want {
		t.Fatalf("64-lane clock capacity = %d, want %d", got, want)
	}
	if words := srv.clock.Words(); words != 64 {
		t.Fatalf("64-lane clock words = %d, want 64", words)
	}
	ts := startWire(t, srv.wire())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/clock/tick", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("64-lane clock tick: status %d", resp.StatusCode)
	}
	var stats statsSnapshot
	if resp, err = http.Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if !stats.ClockPacked || stats.ClockEngine != "multiword" {
		t.Fatalf("stats clock engine = (%v, %q), want machine-word multiword",
			stats.ClockPacked, stats.ClockEngine)
	}
}
