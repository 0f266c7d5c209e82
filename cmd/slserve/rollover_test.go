package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stronglin"
)

// setFlag swaps a flag-backed global for the test and restores it on cleanup
// (slserve's constructors read the flag globals, matching -watermark-budget et al.;
// package tests run sequentially, so the swap is race-free).
func setFlag[T any](t *testing.T, p *T, v T) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// TestHealthzDegradesAndRecovers walks /healthz through the full watermark
// ladder on a forced 8-operation budget: 200 while fresh, 429 at the warn
// line, 503 with the structured unavailability body past crit, and — after
// one controller step re-bases the counter live — back to 200 with the
// counter's value intact and its generation advanced.
func TestHealthzDegradesAndRecovers(t *testing.T) {
	setFlag(t, watermarkBudget, int64(8))
	srv := newServer(4, 2, 0)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	health := func() *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	inc := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := http.Post(ts.URL+"/counter/inc", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("inc: status %d", resp.StatusCode)
			}
		}
	}

	if resp := health(); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh healthz = %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	inc(4) // 4/8 announces: the warn line (0.5)
	resp := health()
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("healthz at warn = %d, want 429", resp.StatusCode)
	}

	inc(4) // 8/8: past crit (0.9)
	resp = health()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz at crit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 healthz missing Retry-After")
	}
	var body struct {
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
		RetryS    int64  `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("503 healthz body not JSON: %v", err)
	}
	resp.Body.Close()
	if body.Error == "" || !body.Retryable || body.RetryS < 1 {
		t.Fatalf("503 healthz body = %+v, want a retryable structured error", body)
	}

	// One controller step renews the budget live.
	srv.pool.With(func(th stronglin.Thread) { srv.rebaser.Step(th) })
	if resp := health(); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after rollover = %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	var st statsSnapshot
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.WatermarkState != "ok" || st.Rollovers < 1 || st.CounterGeneration < 1 {
		t.Fatalf("stats after rollover = state %q rollovers %d gen %d, want ok/>=1/>=1",
			st.WatermarkState, st.Rollovers, st.CounterGeneration)
	}

	// The re-based counter kept its value.
	cresp, err := http.Get(ts.URL + "/counter")
	if err != nil {
		t.Fatal(err)
	}
	var cv struct {
		Value int64 `json:"value"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cv.Value != 8 {
		t.Fatalf("counter after rollover = %d, want 8", cv.Value)
	}
}

// TestClockExhaustion503Shape pins the structured unavailability answer on
// the one budget that is NOT renewable: the clock's 503 carries Retry-After
// and the JSON body, with retryable false — clients can tell a terminal
// budget from a watermark crossing without parsing prose.
func TestClockExhaustion503Shape(t *testing.T) {
	srv := newServerClock(4, 2, 0, 2)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	for i := 0; i < 2; i++ {
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity tick: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("clock 503 missing Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("clock 503 Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("clock 503 body not JSON: %v", err)
	}
	if body.Error == "" || body.Retryable {
		t.Fatalf("clock 503 body = %+v, want a terminal (non-retryable) structured error", body)
	}
}

// TestAutoRolloverUnderLoad is the soak in miniature: a forced tiny budget,
// the watermark controller polling fast, and four concurrent clients cycling
// through the five dense objects throughout. Every request must succeed
// while the engines roll over underneath — the counter's count survives its
// epoch rollovers, the multi-word snapshot's view survives its cutovers, and
// the stats document records the generations advancing. Run with -race and
// a high -count it is the rollover soak.
func TestAutoRolloverUnderLoad(t *testing.T) {
	setFlag(t, watermarkBudget, int64(64))
	srv := newServer(4, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.startRollover(ctx, 2*time.Millisecond)
	ts := startWire(t, srv.wire())
	defer ts.Close()

	// Each client sends rounds x ten requests: one counter inc per round.
	const clients, rounds = 4, 100
	const incs = clients * rounds
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds*len(denseRequests); i++ {
				if err := doDense(http.DefaultClient, ts.URL, i%len(denseRequests), int64(c*17+i)%1000); err != nil {
					errs <- fmt.Errorf("client %d (a rollover failed a client request): %w", c, err)
					return
				}
				if i%100 == 99 {
					time.Sleep(10 * time.Millisecond) // let the controller tick mid-load
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // one final controller pass

	cresp, err := http.Get(ts.URL + "/counter")
	if err != nil {
		t.Fatal(err)
	}
	var cv struct {
		Value int64 `json:"value"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cv.Value != incs {
		t.Fatalf("counter after live rollovers = %d, want %d (lost updates)", cv.Value, incs)
	}

	var st statsSnapshot
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Rollovers < 2 {
		t.Fatalf("rollovers = %d, want the controller to have re-based repeatedly", st.Rollovers)
	}
	if st.CounterGeneration < 1 {
		t.Fatalf("counter generation = %d, want >= 1", st.CounterGeneration)
	}
	if st.MsnapRebase.Generations < 1 {
		t.Fatalf("msnapshot generations = %d, want >= 1", st.MsnapRebase.Generations)
	}
	if st.RolloversRefused != 0 {
		t.Fatalf("rollovers refused = %d, want 0 (the controller is the only migrator)", st.RolloversRefused)
	}
}

// TestShutdownRacesRolloverMidStep is the SIGTERM-vs-rollover regression:
// a tiny forced budget and a 1ms controller interval keep live re-bases
// firing continuously under client traffic, and the context is cancelled
// (the SIGTERM path) while steps and requests are in flight. The contract
// under the race: serveLoop drains and returns nil in time, and every
// increment the server ACKED before the drain finished is in the counter —
// a mid-Step migration must not eat acked requests on the way down.
func TestShutdownRacesRolloverMidStep(t *testing.T) {
	setFlag(t, watermarkBudget, int64(32))
	setFlag(t, rollover, true)
	setFlag(t, rolloverEvery, time.Millisecond)
	setFlag(t, debugAddr, "")

	srv := newServer(4, 2, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, srv, ln) }()

	// Hammer increments from several clients; count only ACKED (200) ones.
	// After the cancellation, connection errors and refusals are expected —
	// the invariant is about what was acked, not about availability.
	var acked atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 2 * time.Second}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Post(url+"/counter/inc", "", nil)
				if err != nil {
					continue
				}
				if resp.StatusCode == http.StatusOK {
					acked.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	time.Sleep(150 * time.Millisecond) // dozens of controller steps mid-traffic
	cancel()                           // SIGTERM lands mid-Step, mid-request

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveLoop after mid-rollover cancel = %v, want nil (exit 0)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveLoop did not drain within 5s of a mid-rollover cancellation")
	}
	stop.Store(true)
	wg.Wait()

	// The drained server's engine state is still directly readable: every
	// acked increment must have landed despite the shutdown racing re-bases.
	var final int64
	srv.pool.With(func(th stronglin.Thread) { final = srv.counter.Read(th) })
	if final < acked.Load() {
		t.Fatalf("counter %d < acked increments %d: shutdown dropped acked requests", final, acked.Load())
	}
	if srv.rebaser.Stats().Rollovers < 1 {
		t.Fatalf("no rollover completed during the soak — the race window never opened")
	}
}

// TestGracefulShutdownDrains exercises the serve-mode lifecycle: runServe
// comes up, answers traffic, and — when its context is cancelled, the same
// path a SIGTERM takes — drains and returns nil, the exit-0 contract
// orchestrators rely on.
func TestGracefulShutdownDrains(t *testing.T) {
	setFlag(t, addr, "127.0.0.1:0")
	setFlag(t, debugAddr, "")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServe(ctx) }()
	time.Sleep(100 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe after cancel = %v, want nil (exit 0)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServe did not drain within 5s of cancellation")
	}
}

// TestSlowHeaderClientDisconnected: every listener slserve opens — the
// backend, the frontend and either tier's -debug-addr — hangs up on a
// client that dribbles a partial request line, instead of holding the
// connection and its goroutine forever. The tiers read the same flags, so
// they run one after the other, each with a -debug-addr of its own.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	setFlag(t, rollover, false)
	run := func(serve func(context.Context) error, targets ...string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- serve(ctx) }()
		errc := make(chan error, len(targets))
		for _, a := range targets {
			go func() { errc <- dribble(a) }()
		}
		for range targets {
			if err := <-errc; err != nil {
				t.Error(err)
			}
		}
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("listener did not drain")
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	setFlag(t, debugAddr, freeAddr(t))
	run(func(ctx context.Context) error { return serveLoop(ctx, newServer(4, 2, 0), ln) },
		ln.Addr().String(), *debugAddr)

	setFlag(t, debugAddr, freeAddr(t))
	setFlag(t, addr, freeAddr(t))
	setFlag(t, backendsFlag, startWire(t, newServer(4, 2, 0).wire()).URL)
	run(runFrontend, *debugAddr, *addr)
}

// freeAddr is a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// dribble sends half a request line to addr and waits for the server to
// hang up; it fails if the connection is still open well past
// readHeaderTimeout.
func dribble(addr string) error {
	var c net.Conn
	var err error
	for i := 0; i < 100; i++ { // the listener may still be coming up
		if c, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET /coun")); err != nil {
		return err
	}
	c.SetReadDeadline(time.Now().Add(readHeaderTimeout + 3*time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		return fmt.Errorf("%s still holds a slow-header client: %v", addr, err)
	}
	return nil
}
