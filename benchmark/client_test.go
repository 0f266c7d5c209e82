package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWireConnRoundTrips(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/value":
			fmt.Fprint(w, `{"value":3}`)
		case "/post":
			body, _ := io.ReadAll(r.Body)
			if r.Method != http.MethodPost || len(body) != 0 {
				w.WriteHeader(http.StatusBadRequest)
			}
			fmt.Fprint(w, `{"ok":true}`)
		case "/degraded":
			w.Header().Set("X-SL-Degraded", "true")
			fmt.Fprint(w, `{"value":1}`)
		case "/missing":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown key"}`)
		case "/close":
			w.Header().Set("Connection", "close")
			fmt.Fprint(w, `{"ok":true}`)
		case "/chunked":
			fmt.Fprint(w, `{"ok":`)
			w.(http.Flusher).Flush()
			fmt.Fprint(w, `true}`)
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	wc := wireConn{addr: strings.TrimPrefix(srv.URL, "http://")}
	defer wc.close()
	var body bytes.Buffer
	for i := 0; i < 3; i++ {
		resp, err := wc.roundTrip(http.MethodGet, []byte("/value?x=1"), &body)
		if err != nil || resp.status != 200 || string(resp.body) != `{"value":3}` || resp.degraded {
			t.Fatalf("GET /value: %+v %q, %v", resp, resp.body, err)
		}
		if resp, err := wc.roundTrip(http.MethodPost, []byte("/post"), &body); err != nil || resp.status != 200 {
			t.Fatalf("POST /post: %+v, %v", resp, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("six keep-alive round trips used %d connections, want 1", n)
	}
	if resp, err := wc.roundTrip(http.MethodGet, []byte("/degraded"), &body); err != nil || !resp.degraded {
		t.Errorf("X-SL-Degraded not seen: %+v, %v", resp, err)
	}
	if resp, err := wc.roundTrip(http.MethodGet, []byte("/missing"), &body); err != nil || resp.status != 404 {
		t.Errorf("404: %+v, %v", resp, err)
	}
	if _, err := wc.roundTrip(http.MethodGet, []byte("/close"), &body); err != nil || wc.c != nil {
		t.Errorf("Connection: close left the connection open (err %v)", err)
	}
	if _, err := wc.roundTrip(http.MethodGet, []byte("/chunked"), &body); err != errChunked {
		t.Errorf("chunked body: err %v, want errChunked", err)
	}
	if resp, err := wc.roundTrip(http.MethodGet, []byte("/value"), &body); err != nil || resp.status != 200 {
		t.Errorf("redial after an error: %+v, %v", resp, err)
	}
}

// TestAnswerChecks feeds check() answers the server should never give.
func TestAnswerChecks(t *testing.T) {
	keys := newKeyNames(4)
	c := newClient("127.0.0.1:1", newModel(4), keys)
	m := c.m
	i64 := func(v int64) *int64 { return &v }
	yes, no := true, false

	// Three incs issued, two acked.
	for i := 0; i < 3; i++ {
		c.request(op{kind: opCounterInc})
	}
	m.counterAcked.Store(2)
	for _, c2 := range []struct {
		v    int64
		lo   int64
		want bool // true: accepted
	}{{2, 2, true}, {3, 2, true}, {1, 2, false}, {4, 2, false}} {
		c.ans = answer{Value: i64(c2.v)}
		c.lastCounter = 0
		err := c.check(op{kind: opCounterRead}, c2.lo, false)
		if (err == nil) != c2.want || (err != nil && !isCheckError(err)) {
			t.Errorf("counter read %d with %d acked: err %v", c2.v, c2.lo, err)
		}
	}
	c.lastCounter = 3
	c.ans = answer{Value: i64(2)}
	if err := c.check(op{kind: opCounterRead}, 2, false); err == nil {
		t.Error("a decreasing counter read passed")
	}
	if err := c.check(op{kind: opCounterRead}, 2, true); err != nil {
		t.Errorf("a degraded (ledger) read is exempt from the monotone check: %v", err)
	}

	// A max register read must be a value that was written.
	c.request(op{kind: opMaxregWrite, val: 7})
	c.ans = answer{Value: i64(5)}
	if err := c.check(op{kind: opMaxregRead}, 0, false); err == nil {
		t.Error("max register read of a never-written value passed")
	}
	c.ans = answer{Value: i64(7)}
	if err := c.check(op{kind: opMaxregRead}, 0, false); err != nil {
		t.Errorf("max register read of the written value: %v", err)
	}

	// Keyed: absent keys are never members; kinds must match families.
	c.ans = answer{Member: &yes}
	if err := c.check(op{kind: opKGSetHas, fam: famAbsent, key: 1}, 0, false); err == nil {
		t.Error("an absent key reported present passed")
	}
	c.ans = answer{Member: &no}
	if err := c.check(op{kind: opKGSetHas, fam: famSet, key: 1}, 1, false); err == nil {
		t.Error("an acked key reported absent passed")
	}
	c.request(op{kind: opMapInc, fam: famInc, key: 2})
	c.ans = answer{Value: i64(1), Kind: "max"}
	if err := c.check(op{kind: opMapGet, fam: famInc, key: 2}, 0, false); err == nil {
		t.Error("a counter key answered as a max key passed")
	}
	c.ans = answer{Value: i64(1), Kind: "counter"}
	if err := c.check(op{kind: opMapGet, fam: famInc, key: 2}, 1, false); err != nil {
		t.Errorf("map get within bounds: %v", err)
	}
	c.ans = answer{Value: i64(2), Kind: "counter"}
	if err := c.check(op{kind: opMapGet, fam: famInc, key: 2}, 1, false); err == nil {
		t.Error("map get above every issued increment passed")
	}

	// A snapshot view must have one component per lane, each written.
	c.ans = answer{View: make([]int64, serverLanes-1)}
	if err := c.check(op{kind: opSnapScan}, 0, false); err == nil {
		t.Error("a short snapshot view passed")
	}
	view := make([]int64, serverLanes)
	view[3] = 9
	c.ans = answer{View: view}
	if err := c.check(op{kind: opSnapScan}, 0, false); err == nil {
		t.Error("a snapshot component never written passed")
	}
}
