package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawConn is a keep-alive client that allocates nothing: it writes
// prebuilt request bytes and reads each answer into a fixed buffer, so
// testing.AllocsPerRun over an exchange counts only the servers' garbage.
type rawConn struct {
	c   net.Conn
	buf [16 << 10]byte
}

func dialRaw(t testing.TB, base string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{c: c}
}

// exchange sends req and reads one answer: its status and its body, a view
// of the connection's buffer valid until the next exchange. ok is false if
// the connection failed or the answer does not parse.
func (rc *rawConn) exchange(req []byte) (code int, body []byte, ok bool) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, false
	}
	n := 0
	for {
		m, err := rc.c.Read(rc.buf[n:])
		if err != nil {
			return 0, nil, false
		}
		n += m
		h := bytes.Index(rc.buf[:n], []byte("\r\n\r\n"))
		if h < 0 {
			continue
		}
		head := rc.buf[:h]
		if len(head) < 12 {
			return 0, nil, false
		}
		code, ok = atoiBytes(head[9:12])
		i := bytes.Index(head, []byte("\r\nContent-Length: "))
		if !ok || i < 0 {
			return 0, nil, false
		}
		digits := head[i+len("\r\nContent-Length: "):]
		if j := bytes.IndexByte(digits, '\r'); j >= 0 {
			digits = digits[:j]
		}
		length, ok := atoiBytes(digits)
		if !ok {
			return 0, nil, false
		}
		end := h + 4 + length
		for n < end {
			if m, err = rc.c.Read(rc.buf[n:]); err != nil {
				return 0, nil, false
			}
			n += m
		}
		return code, rc.buf[h+4 : end], true
	}
}

// rawRequest is the request head a minimal client sends.
func rawRequest(method, target string) []byte {
	return []byte(method + " " + target + " HTTP/1.1\r\nHost: t\r\n\r\n")
}

// probe is one request of a zero-alloc check and the status it answers.
type probe struct {
	method, target string
	code           int
}

// checkZeroAllocs runs each request once to create its state (the keys
// exist from then on), then requires 0 allocations per request.
func checkZeroAllocs(t *testing.T, base string, reqs []probe) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rc := dialRaw(t, base)
	for _, r := range reqs {
		req := rawRequest(r.method, r.target)
		code, body, ok := rc.exchange(req)
		if !ok || code != r.code {
			t.Fatalf("%s %s: %d %s, want %d", r.method, r.target, code, body, r.code)
		}
		failed := false
		avg := testing.AllocsPerRun(200, func() {
			if code, _, ok := rc.exchange(req); !ok || code != r.code {
				failed = true
			}
		})
		if failed {
			t.Fatalf("%s %s failed during the measurement", r.method, r.target)
		}
		if avg != 0 {
			t.Errorf("%s %s: %v allocs/request, want 0", r.method, r.target, avg)
		}
	}
}

// servedRequests are the steady-state requests that must allocate nothing,
// keyed ones on keys that already exist.
var servedRequests = []probe{
	{http.MethodPost, "/counter/inc", http.StatusOK},
	{http.MethodGet, "/counter", http.StatusOK},
	{http.MethodPost, "/maxreg?v=9", http.StatusOK},
	{http.MethodGet, "/maxreg", http.StatusOK},
	{http.MethodPost, "/gset?x=5", http.StatusOK},
	{http.MethodGet, "/gset?x=5", http.StatusOK},
	{http.MethodPost, "/kgset/add?k=alpha", http.StatusOK},
	{http.MethodGet, "/kgset/has?k=alpha", http.StatusOK},
	{http.MethodPost, "/map/inc?k=hits", http.StatusOK},
	{http.MethodPost, "/map/max?k=peak&v=7", http.StatusOK},
	{http.MethodGet, "/map/get?k=hits", http.StatusOK},
}

// TestBackendRequestPathZeroAllocs: the backend's steady-state request
// path, from the head's bytes to the framed answer, allocates nothing; nor
// do the constant 404s of a key never written and of an unknown path, a
// 405, and the 400s of a malformed and of a missing parameter.
func TestBackendRequestPathZeroAllocs(t *testing.T) {
	ts := startWire(t, newServer(4, 2, 0).wire())
	checkZeroAllocs(t, ts.URL, append(servedRequests,
		probe{http.MethodGet, "/map/get?k=absent", http.StatusNotFound},
		probe{http.MethodGet, "/nope", http.StatusNotFound},
		probe{http.MethodPut, "/counter", http.StatusMethodNotAllowed},
		probe{http.MethodPost, "/maxreg?v=abc", http.StatusBadRequest},
		probe{http.MethodPost, "/maxreg", http.StatusBadRequest}))
}

// TestFrontendRequestPathZeroAllocs: the same through the routing tier,
// frontend → backend and back, for every routed request of the list. The
// health loop and reconciler do not run, so only the two request paths
// allocate, if anything does.
func TestFrontendRequestPathZeroAllocs(t *testing.T) {
	ts := startWire(t, newServer(4, 2, 0).wire())
	f := wireFrontend(t, time.Second, ts.URL)
	ctx := context.Background()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL
	checkZeroAllocs(t, h, servedRequests)
}

// mustExchange sends one request on rc and checks for a 200 with body want
// ("" = any body).
func mustExchange(t *testing.T, rc *rawConn, method, target, want string) {
	t.Helper()
	code, body, ok := rc.exchange(rawRequest(method, target))
	if !ok {
		t.Fatalf("%s %s: the connection failed", method, target)
	}
	if code != http.StatusOK || (want != "" && string(body) != want) {
		t.Errorf("%s %s = %d %q, want 200 %q", method, target, code, body, want)
	}
}

// TestRetainedKeysOutliveTheirRequest: request strings view the
// connection's read buffer, so a key kept past its request must be a copy.
// Each key below is followed on the same connection by a request for a
// different key of the same length, whose head lands on the same bytes of
// the buffer; the kept key must still be the one written.
func TestRetainedKeysOutliveTheirRequest(t *testing.T) {
	t.Run("backend", func(t *testing.T) {
		srv := newServer(4, 2, 0)
		rc := dialRaw(t, startWire(t, srv.wire()).URL)
		mustExchange(t, rc, http.MethodPost, "/map/inc?k=aaaa", "")
		mustExchange(t, rc, http.MethodPost, "/map/inc?k=bbbb", "")
		mustExchange(t, rc, http.MethodPost, "/kgset/add?k=cccc", "")
		mustExchange(t, rc, http.MethodPost, "/kgset/add?k=dddd", "")
		mustExchange(t, rc, http.MethodGet, "/map/get?k=aaaa", `{"kind":"counter","value":1}`+"\n")
		mustExchange(t, rc, http.MethodGet, "/map/get?k=bbbb", `{"kind":"counter","value":1}`+"\n")
		mustExchange(t, rc, http.MethodGet, "/kgset/has?k=cccc", `{"member":true}`+"\n")
		mustExchange(t, rc, http.MethodGet, "/kgset/has?k=dddd", `{"member":true}`+"\n")
	})
	t.Run("frontend ledger", func(t *testing.T) {
		ts := startWire(t, newServer(4, 2, 0).wire())
		f := wireFrontend(t, time.Second, ts.URL)
		ctx := context.Background()
		f.health.Sweep(ctx)
		f.reconcileOnce(ctx)
		rc := dialRaw(t, startWire(t, f.wire()).URL)
		// The second aaaa folds into an existing entry, the bbbb after it
		// inserts a new one over the same buffer bytes.
		mustExchange(t, rc, http.MethodPost, "/map/inc?k=aaaa", "")
		mustExchange(t, rc, http.MethodPost, "/map/inc?k=aaaa", "")
		mustExchange(t, rc, http.MethodPost, "/map/inc?k=bbbb", "")
		l := f.ledgers["map_inc"]
		for key, want := range map[string]int64{"aaaa": 2, "bbbb": 1} {
			if v, ok := l.get(args{key: key}); !ok || v != want {
				t.Errorf("ledger[%s] = %d, %v; want %d", key, v, ok, want)
			}
		}
		if n := l.size(); n != 2 {
			t.Errorf("ledger holds %d keys, want 2", n)
		}
	})
}

// BenchmarkBackendConns drives one in-process backend (8 lanes, 4 shards)
// from N keep-alive connections at once, each sending POST /counter/inc or
// GET /counter back to back. ns/op is wall time per request across all
// connections; req/s is its inverse.
func BenchmarkBackendConns(b *testing.B) {
	for _, rq := range []struct{ name, method, target string }{
		{"inc", http.MethodPost, "/counter/inc"},
		{"read", http.MethodGet, "/counter"},
	} {
		req := rawRequest(rq.method, rq.target)
		for _, conns := range []int{2, 64, 256} {
			b.Run(fmt.Sprintf("%s/%d", rq.name, conns), func(b *testing.B) {
				base := startWire(b, newServer(8, 4, 0).wire()).URL
				rcs := make([]*rawConn, conns)
				for i := range rcs {
					rcs[i] = dialRaw(b, base)
				}
				var left atomic.Int64
				left.Store(int64(b.N))
				var failed atomic.Bool
				var wg sync.WaitGroup
				b.ResetTimer()
				for _, rc := range rcs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for left.Add(-1) >= 0 {
							if code, _, ok := rc.exchange(req); !ok || code != http.StatusOK {
								failed.Store(true)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if failed.Load() {
					b.Fatalf("%s %s failed", rq.method, rq.target)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			})
		}
	}
}
