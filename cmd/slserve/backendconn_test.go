package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"stronglin/internal/cluster"
	"stronglin/internal/obs"
)

// wireFrontend is a frontend over the given backend URLs whose health loop
// and reconciler never start: tests drive f.do and the pools directly.
func wireFrontend(t testing.TB, timeout time.Duration, urls ...string) *frontend {
	return mustFrontend(t, frontendConfig{
		backends:     urls,
		routeTimeout: timeout,
		health:       fastHealth(),
		slots:        4,
	})
}

func idleCount(p *backendPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// TestBackendPoolAnswers drives f.do against real backends: a 200 with
// Content-Length reuses one connection, a large GET /gset parses whole, and
// the error statuses map as the proxy expects.
func TestBackendPoolAnswers(t *testing.T) {
	setFlag(t, watermarkBudget, int64(8))
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := wireFrontend(t, time.Second, ts.URL)
	ctx := context.Background()
	p := f.pools[0]

	for i := 0; i < 8; i++ { // 8/8 announces: past the crit watermark
		if _, err := f.do(ctx, 0, 0, http.MethodPost, "/counter/inc", nil); err != nil {
			t.Fatalf("inc %d: %v", i, err)
		}
	}
	body, err := f.do(ctx, 0, 0, http.MethodGet, "/counter", nil)
	if err != nil || !strings.Contains(string(body), `"value":8`) {
		t.Fatalf("counter read = %s, %v; want value 8", body, err)
	}
	if d := f.dials.Load(); d != 1 || idleCount(p) != 1 {
		t.Fatalf("dials = %d, idle = %d after 9 sequential round trips; want one reused connection", d, idleCount(p))
	}

	// A large answer: a 1000-element set is several KiB of body.
	for x := 0; x < 1000; x++ {
		if _, err := f.do(ctx, 0, 0, http.MethodPost, fmt.Sprintf("/gset?x=%d", x), nil); err != nil {
			t.Fatalf("gset add %d: %v", x, err)
		}
	}
	body, err = f.do(ctx, 0, 0, http.MethodGet, "/gset", nil)
	if err != nil {
		t.Fatalf("gset read: %v", err)
	}
	var set struct {
		Elems []int64 `json:"elems"`
	}
	if err := json.Unmarshal(body, &set); err != nil || len(set.Elems) != 1000 || len(body) <= 2048 {
		t.Fatalf("gset read: %d elems in %d bytes, %v; want 1000 in a large body", len(set.Elems), len(body), err)
	}

	// 409: a generation below the fence floor.
	if _, err := f.do(ctx, 0, 5, http.MethodPost, "/fence?obj=maxreg&gen=5", nil); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if _, err := f.do(ctx, 0, 4, http.MethodGet, "/maxreg", nil); !errors.Is(err, cluster.ErrFenced) {
		t.Fatalf("read below the floor = %v, want ErrFenced", err)
	}

	// A structured 503 with Retry-After: /healthz past the crit watermark.
	_, err = f.do(ctx, 0, 0, http.MethodGet, "/healthz", nil)
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusServiceUnavailable || !se.retryable || se.retryAfter != time.Second {
		t.Fatalf("healthz at crit = %#v, want a retryable 503 with a 1s retry-after", err)
	}

	_, err = f.do(ctx, 0, 0, http.MethodGet, "/map/get?k=ghost", nil)
	if !errors.As(err, &se) || se.code != http.StatusNotFound || se.retryable || se.reason == "" {
		t.Fatalf("unknown key = %#v, want a non-retryable 404 with a reason", err)
	}
	// A HEAD answer carries a Content-Length but no body.
	_, err = f.do(ctx, 0, 0, http.MethodHead, "/counter/inc", nil)
	if !errors.As(err, &se) || se.code != http.StatusMethodNotAllowed {
		t.Fatalf("HEAD /counter/inc = %#v, want 405", err)
	}
	if d := f.dials.Load(); d != 1 {
		t.Fatalf("dials = %d after error answers; want them on the one kept connection", d)
	}
}

// TestBackendPoolURLs: a backend is named by http://host[:port]; anything
// else fails newFrontend instead of failing every proxied request.
func TestBackendPoolURLs(t *testing.T) {
	for _, bad := range []string{"https://a:1", "127.0.0.1:1", "http://", "http://a:1/prefix", "http://a:1?q=1", "http://u@a:1"} {
		if _, err := newFrontend(frontendConfig{backends: []string{bad}}); err == nil {
			t.Errorf("backend %q accepted", bad)
		}
	}
	f := wireFrontend(t, time.Second, "http://a:1", "http://b/", "http://[::1]")
	for i, want := range []string{"a:1", "b:80", "[::1]:80"} {
		if got := f.pools[i].addr; got != want {
			t.Errorf("backend %d dials %q, want %q", i, got, want)
		}
	}
}

// TestBackendPoolConnectionClose: a response carrying Connection: close is
// answered but its connection is not pooled.
func TestBackendPoolConnectionClose(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte(`{"value":0}` + "\n"))
	}))
	defer ts.Close()
	f := wireFrontend(t, time.Second, ts.URL)
	for i := 0; i < 3; i++ {
		if _, err := f.do(context.Background(), 0, 0, http.MethodGet, "/counter", nil); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if n := idleCount(f.pools[0]); n != 0 {
			t.Fatalf("idle = %d after a Connection: close answer, want 0", n)
		}
	}
	if d := f.dials.Load(); d != 3 {
		t.Fatalf("dials = %d, want one per request", d)
	}
}

// TestBackendPoolBodyLimit: a 200 over 1 MiB is an error, and the
// connection is not kept.
func TestBackendPoolBodyLimit(t *testing.T) {
	big := bytes.Repeat([]byte("x"), okBodyLimit+1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(big)))
		w.Write(big)
	}))
	defer ts.Close()
	f := wireFrontend(t, time.Second, ts.URL)
	if body, err := f.do(context.Background(), 0, 0, http.MethodGet, "/length", nil); err == nil {
		t.Fatalf("%d-byte body accepted, want an error", len(body))
	}
	if n := idleCount(f.pools[0]); n != 0 {
		t.Fatalf("idle = %d after an over-limit body, want 0", n)
	}
}

// TestBackendPoolRefusesChunked: backends always send Content-Length, so a
// chunked answer, however small, is an error and its connection is closed.
func TestBackendPoolRefusesChunked(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"value":0}` + "\n"))
		w.(http.Flusher).Flush() // sends the head without a length: chunked
	}))
	defer ts.Close()
	f := wireFrontend(t, time.Second, ts.URL)
	if body, err := f.do(context.Background(), 0, 0, http.MethodGet, "/chunked", nil); err == nil {
		t.Fatalf("chunked answer accepted as %q, want an error", body)
	}
	if n := idleCount(f.pools[0]); n != 0 {
		t.Fatalf("idle = %d after a chunked answer, want 0", n)
	}
	for _, answer := range chunkedAnswers {
		if code, _, idle, err := rawAnswer(t, []byte(answer)); err == nil || idle != 0 {
			t.Errorf("%q: status %d, err %v, idle %d; want an error and a closed connection", answer, code, err, idle)
		}
	}
}

// chunkedAnswers are backend answers framed by Transfer-Encoding: chunked,
// one whole and one cut short.
var chunkedAnswers = []string{
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n[1,2]\r\n0\r\nX-Trailer: 1\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nfffff\r\nxx",
}

// TestBackendPoolSilentBackend: a backend that accepts a request and never
// answers fails the round trip at routeTimeout. The request rode a reused
// connection, and a timeout is not replayed.
func TestBackendPoolSilentBackend(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/warm" {
			<-r.Context().Done()
		}
	}))
	defer ts.Close()
	const timeout = 200 * time.Millisecond
	f := wireFrontend(t, timeout, ts.URL)
	if _, err := f.do(context.Background(), 0, 0, http.MethodGet, "/warm", nil); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	start := time.Now()
	_, err := f.do(context.Background(), 0, 0, http.MethodGet, "/counter", nil)
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent backend = %v, want a deadline error", err)
	}
	if elapsed < timeout || elapsed > timeout+time.Second {
		t.Fatalf("silent backend failed after %v, want about routeTimeout (%v)", elapsed, timeout)
	}
	if d := f.dials.Load(); d != 1 {
		t.Fatalf("dials = %d: a timed-out GET was replayed", d)
	}
}

// TestBackendPoolCancelMidRead: cancelling the context while the answer is
// outstanding tears the connection down (the backend sees its client go)
// and leaves nothing in the pool.
func TestBackendPoolCancelMidRead(t *testing.T) {
	torn := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		close(torn)
	}))
	defer ts.Close()
	f := wireFrontend(t, 30*time.Second, ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := f.do(ctx, 0, 0, http.MethodGet, "/counter", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %v, want context.Canceled", err)
	}
	select {
	case <-torn:
	case <-time.After(2 * time.Second):
		t.Fatal("backend never saw the cancelled connection close")
	}
	if n := idleCount(f.pools[0]); n != 0 {
		t.Fatalf("idle = %d after a cancelled round trip, want 0", n)
	}
}

// TestBackendPoolStaleAfterRestart: a backend restarted on the same address
// leaves dead idle connections behind. A GET on one redials once,
// invisibly; a POST is never replayed by the pool, so it fails once. Either
// failure drops the other dead idle connection, so the next POST dials.
func TestBackendPoolStaleAfterRestart(t *testing.T) {
	b := startPoolBackend(t, "127.0.0.1:0")
	defer b.kill()
	f := wireFrontend(t, time.Second, "http://"+b.addr)
	ctx := context.Background()
	p := f.pools[0]
	restart := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			bc, err := p.dial(ctx)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			p.put(bc)
		}
		b.kill()
		b.restart(t)
	}

	restart()
	dials := f.dials.Load()
	if _, err := f.do(ctx, 0, 0, http.MethodGet, "/counter", nil); err != nil {
		t.Fatalf("GET on a stale connection = %v, want a transparent redial", err)
	}
	if d := f.dials.Load() - dials; d != 1 {
		t.Fatalf("GET redialed %d times, want 1", d)
	}
	p.closeIdle()

	restart()
	dials = f.dials.Load()
	if _, err := f.do(ctx, 0, 0, http.MethodPost, "/counter/inc", nil); err == nil {
		t.Fatal("POST on a stale connection succeeded: the pool replayed it")
	}
	if d := f.dials.Load() - dials; d != 0 {
		t.Fatalf("POST redialed %d times, want 0", d)
	}
	if _, err := f.do(ctx, 0, 0, http.MethodPost, "/counter/inc", nil); err != nil {
		t.Fatalf("POST after the stale one: %v", err)
	}
	body, err := f.do(ctx, 0, 0, http.MethodGet, "/counter", nil)
	if err != nil || !strings.Contains(string(body), `"value":1`) {
		t.Fatalf("counter = %s, %v; want exactly the one POST that succeeded", body, err)
	}
}

// rawAnswer sends POST /counter/inc on a pooled connection whose backend
// answers with the given bytes, and returns what roundTrip made of them and
// how many connections the pool then holds idle.
func rawAnswer(t *testing.T, answer []byte) (code int, body []byte, idle int, err error) {
	p, err := newBackendPool("http://127.0.0.1:1", time.Second, 1, obs.NewRegistry().Counter("dials", ""))
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		br := bufio.NewReader(server)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if string(line) == "\r\n" {
				break
			}
		}
		server.Write(answer)
	}()
	p.put(&backendConn{c: client, br: bufio.NewReader(client)})
	code, body, err = p.roundTrip(context.Background(), http.MethodPost, "/counter/inc", 0, nil)
	idle = idleCount(p)
	p.closeIdle()
	<-done
	return code, body, idle, err
}

// FuzzBackendResponse feeds arbitrary bytes as a backend's answer to a
// reused pooled connection: no panic, no body over its limit, and a
// connection that failed to parse never goes back to the pool.
func FuzzBackendResponse(f *testing.F) {
	for _, seed := range append([]string{
		"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n{\"value\":1}\n",
		"HTTP/1.1 409 Conflict\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 59\r\n\r\n{\"error\":\"x\",\"retryable\":true,\"retry_after_seconds\":1}\n    ",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2000000\r\n\r\nxx",
		"HTTP/1.1 500 Oops\r\nContent-Length: 5000\r\n\r\n" + strings.Repeat("e", 5000),
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.0 200 OK\r\n\r\n",
		"garbage\r\n\r\n",
		"",
	}, chunkedAnswers...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, answer []byte) {
		code, body, idle, err := rawAnswer(t, answer)
		switch {
		case err != nil && idle != 0:
			t.Fatalf("connection pooled after %v", err)
		case err == nil && code == http.StatusOK && len(body) > okBodyLimit,
			err == nil && code != http.StatusOK && len(body) > errBodyLimit:
			t.Fatalf("%d-byte body for status %d", len(body), code)
		}
	})
}

// BenchmarkFrontendProxyHop is one frontend-to-backend round trip: f.do
// against a real backend on loopback, both tiers in this process, reading
// each answer into one reused buffer as the proxy reads into its response.
// The keyed rows' key is written once before any row runs, so each row,
// map_get included, also runs alone under a -bench filter.
func BenchmarkFrontendProxyHop(b *testing.B) {
	ts := startWire(b, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := wireFrontend(b, time.Second, ts.URL)
	ctx := context.Background()
	buf, err := f.do(ctx, 0, 0, http.MethodPost, "/map/inc?k=bench", nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, method, uri string }{
		{"get", http.MethodGet, "/counter"},
		{"post", http.MethodPost, "/counter/inc"},
		{"map_inc", http.MethodPost, "/map/inc?k=bench"},
		{"map_get", http.MethodGet, "/map/get?k=bench"},
		{"kgset_add", http.MethodPost, "/kgset/add?k=bench"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if buf, err = f.do(ctx, 0, 0, bc.method, bc.uri, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
