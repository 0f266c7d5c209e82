package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stronglin/internal/cluster"
)

// testServer is a data-path server on a loopback listener.
type testServer struct {
	URL string
	ws  *wireServer
}

// startWire serves ws on a fresh loopback port until the test ends.
func startWire(t testing.TB, ws *wireServer) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.serve(ln)
	ts := &testServer{URL: "http://" + ln.Addr().String(), ws: ws}
	t.Cleanup(ts.Close)
	return ts
}

// Close kills the server: its listener and every connection at once.
func (ts *testServer) Close() { ts.ws.close() }

// genReq sends one request, carrying X-SL-Gen: gen unless gen is empty, to
// the server listening at base and records its answer.
func genReq(t testing.TB, base, method, target, gen string) *httptest.ResponseRecorder {
	t.Helper()
	req, err := http.NewRequest(method, base+target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != "" {
		req.Header.Set("X-SL-Gen", gen)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
	defer resp.Body.Close()
	return record(t, resp)
}

// record copies a response into a recorder, the shape the assertion
// helpers take.
func record(t testing.TB, resp *http.Response) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	for k, v := range resp.Header {
		rec.Header()[k] = v
	}
	rec.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(rec, resp.Body); err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	return rec
}

// dialWire opens a raw connection to the server at base.
func dialWire(t *testing.T, base string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// TestWireEdges drives the served HTTP subset's edges over raw connections:
// each row's bytes get the listed statuses in order, every refusal carries
// the uniform error body, and the connection then either closes or, still
// in sync, answers one more request.
func TestWireEdges(t *testing.T) {
	ts := startWire(t, newServer(4, 2, 0).wire())
	head := func(n int) string { // a GET /healthz head of exactly n bytes
		const line, pad = "GET /healthz HTTP/1.1\r\n", "X-Pad: \r\n\r\n"
		return line + "X-Pad: " + strings.Repeat("p", n-len(line)-len(pad)) + "\r\n\r\n"
	}
	for _, tc := range []struct {
		name   string
		send   string
		want   []int
		method string // of every request in send (GET when empty)
		close  bool
	}{
		{"post-content-length-0", "POST /counter/inc HTTP/1.1\r\nContent-Length: 0\r\n\r\n", []int{200}, "", false},
		{"post-no-length", "POST /counter/inc HTTP/1.1\r\n\r\n", []int{200}, "", false},
		{"body", "POST /counter/inc HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", []int{400}, "", true},
		{"transfer-encoding", "POST /counter/inc HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", []int{400}, "", true},
		{"expect", "POST /counter/inc HTTP/1.1\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", []int{417}, "", true},
		{"head-at-cap", head(maxHeadBytes), []int{200}, "", false},
		{"head-past-cap", head(maxHeadBytes + 1), []int{431}, "", true},
		{"connection-close", "GET /counter HTTP/1.1\r\nConnection: close\r\n\r\n", []int{200}, "", true},
		{"http-1.0", "GET /counter HTTP/1.0\r\n\r\n", []int{200}, "", true},
		{"pipelined", "POST /counter/inc HTTP/1.1\r\n\r\nGET /counter HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n", []int{200, 200, 404}, "", false},
		{"bare-lf", "GET /counter HTTP/1.1\nHost: x\n\n", []int{200}, "", false},
		{"head", "HEAD /healthz HTTP/1.1\r\n\r\n", []int{200}, http.MethodHead, false},
		{"bad-version", "GET /counter HTTP/2.0\r\n\r\n", []int{400}, "", true},
		{"bad-target", "GET counter HTTP/1.1\r\n\r\n", []int{400}, "", true},
		{"bad-header", "GET /counter HTTP/1.1\r\nno colon\r\n\r\n", []int{400}, "", true},
		{"folded-header", "GET /counter HTTP/1.1\r\nX-A: b\r\n c\r\n\r\n", []int{400}, "", true},
		{"bad-escape", "GET /counter%zz HTTP/1.1\r\n\r\n", []int{400}, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialWire(t, ts.URL)
			if _, err := io.WriteString(c, tc.send); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(c)
			method := tc.method
			if method == "" {
				method = http.MethodGet
			}
			for i, want := range tc.want {
				resp, err := http.ReadResponse(br, &http.Request{Method: method})
				if err != nil {
					t.Fatalf("answer %d: %v", i, err)
				}
				if resp.ContentLength < 0 {
					t.Fatalf("answer %d has no Content-Length", i)
				}
				rec := record(t, resp)
				if rec.Code != want {
					t.Fatalf("answer %d: status %d, want %d (body %q)", i, rec.Code, want, rec.Body.String())
				}
				if want != http.StatusOK {
					assertErrShape(t, rec, false)
				}
				if last := i == len(tc.want)-1; resp.Close != (last && tc.close) {
					t.Fatalf("answer %d: Connection: close = %v, want %v", i, resp.Close, last && tc.close)
				}
			}
			if tc.close {
				if n, err := br.Read(make([]byte, 1)); err != io.EOF {
					t.Fatalf("after the answer: read %d bytes, %v; want the server to close", n, err)
				}
				return
			}
			io.WriteString(c, "GET /healthz HTTP/1.1\r\n\r\n")
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("follow-up request on the kept connection: %v", err)
			}
			if rec := record(t, resp); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
				t.Fatalf("follow-up /healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
			}
		})
	}
	// Only the rows the table answered 200 reached the counter: the
	// refused bodies never ran.
	if got := feValue(t, feReq(t, ts.URL, http.MethodGet, "/counter")); got != 3 {
		t.Fatalf("counter = %d, want the 3 served increments", got)
	}
}

// TestWirePanicClosesOnlyItsConnection: an engine step that panics drops
// its own connection, unanswered, as net/http's per-request recover did.
// The step releases its lane lease in a deferred call, so the pool gets
// each lane back: with two lanes, the three panics would otherwise leave
// the later requests waiting for a lane forever. Other connections are
// served throughout.
func TestWirePanicClosesOnlyItsConnection(t *testing.T) {
	srv := newServer(2, 2, 0)
	srv.counter = nil // every counter step dereferences it
	ts := startWire(t, srv.wire())
	for i := 0; i < 3; i++ {
		c := dialWire(t, ts.URL)
		io.WriteString(c, "POST /counter/inc HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
		if b, err := io.ReadAll(c); err != nil || len(b) != 0 {
			t.Fatalf("panicking inc %d: read %q, %v; want the connection closed unanswered", i, b, err)
		}
		if rec := feReq(t, ts.URL, http.MethodPost, "/maxreg?v=5"); rec.Code != http.StatusOK {
			t.Fatalf("maxreg write after panic %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
}

// TestQueryGet: query.Get answers what url.ParseQuery(q).Get does.
func TestQueryGet(t *testing.T) {
	for _, q := range []string{
		"", "k=a", "k=a&k=b", "x=1&k=%41", "k=a+b", "k=%zz&k=ok", "%6b=v", "k", "k=", "&&k=1",
		"a=1;k=2&k=3", "k=1;x&k=4", "k=%2", "v=1&d=2&obj=map.p3&gen=7", "k=%E2%82%AC",
	} {
		want, _ := neturl.ParseQuery(q)
		for _, name := range []string{"k", "x", "v", "d", "obj", "gen", "a"} {
			if got := query(q).Get(name); got != want.Get(name) {
				t.Errorf("query(%q).Get(%q) = %q, want %q", q, name, got, want.Get(name))
			}
		}
	}
}

// TestAtoi64: atoi64 accepts exactly what strconv.ParseInt(s, 10, 64) does,
// with the same value.
func TestAtoi64(t *testing.T) {
	for _, s := range []string{
		"", "0", "-0", "+0", "7", "+7", "-7", "007", "abc", "1a", "a1", " 1", "1 ", "+", "-", "--1", "+-1",
		"1_000", "0x10", "1e3", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "00009223372036854775807", "18446744073709551616", "99999999999999999999",
	} {
		want, err := strconv.ParseInt(s, 10, 64)
		if got, ok := atoi64(s); ok != (err == nil) || got != want && ok {
			t.Errorf("atoi64(%q) = %d, %v; ParseInt = %d, %v", s, got, ok, want, err)
		}
	}
}

// headsOf splits a request stream into heads the way the server frames
// them: each ends at its first blank line. A trailing partial head is the
// last element.
func headsOf(b []byte) [][]byte {
	var heads [][]byte
	for len(b) > 0 {
		n := headLen(b)
		if n == 0 {
			n = len(b)
		}
		heads = append(heads, b[:n])
		b = b[n:]
	}
	return heads
}

// FuzzRequestHead feeds arbitrary bytes, followed by one well-formed
// request, to a backend's data listener. Every answer must parse, none may
// be a 5xx other than the documented 503, every non-200 carries the
// uniform error body, and the connection stays in sync: each head gets
// exactly one answer, in order, until an answer closes the connection.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /counter HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /counter/inc HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /counter HTTP/1.1\r\n\r\n",
		"POST /map/inc?k=a&d=3 HTTP/1.1\r\nX-SL-Gen: 4\r\n\r\n",
		"POST /counter/inc HTTP/1.1\r\nX-SL-Gen: zebra\r\n\r\n",
		"POST /fence?obj=map.p1&gen=9 HTTP/1.1\r\n\r\nGET /map/get?k=b HTTP/1.1\r\nX-SL-Gen: 3\r\n\r\n",
		"HEAD /healthz HTTP/1.1\r\n\r\nHEAD /nope HTTP/1.1\r\n\r\n",
		"POST /gset?x=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"POST /gset?x=1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /gset?x=1 HTTP/1.1\r\nExpect: 100-continue\r\n\r\n",
		"GET /kgset/has?k=%zz HTTP/1.0\r\n\r\n",
		"GET /stats HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
		"DELETE /maxreg HTTP/1.1\r\n\r\n",
		"GET /counter HTTP/1.1\nX-A: b\n c\n\n",
		"GET / HTTP/1.1\r\n" + strings.Repeat("X-Pad: 0123456789\r\n", 500) + "\r\n",
		"\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	// A Unix socket: a TCP connection per input would leave tens of
	// thousands of TIME_WAIT sockets and run the host out of ports. The
	// bound keeps the fuzzer's sets and registers small.
	ln, err := net.Listen("unix", filepath.Join(f.TempDir(), "s"))
	if err != nil {
		f.Fatal(err)
	}
	ws := newServer(4, 2, 1023).wire()
	go ws.serve(ln)
	f.Cleanup(ws.close)
	const sentinel = "GET /healthz HTTP/1.1\r\n\r\n"
	f.Fuzz(func(t *testing.T, in []byte) {
		send := append(append([]byte(nil), in...), sentinel...)
		c, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			c.Write(send)
			c.(*net.UnixConn).CloseWrite()
		}()
		out, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("reading the answers: %v", err)
		}
		heads := headsOf(send)
		br := bufio.NewReader(bytes.NewReader(out))
		for i := 0; ; i++ {
			if _, err := br.Peek(1); err == io.EOF {
				if i != len(heads) {
					t.Fatalf("%d heads, %d answers: the connection closed unanswered", len(heads), i)
				}
				return
			}
			if i == len(heads) {
				t.Fatalf("more answers than the %d heads", len(heads))
			}
			method := http.MethodGet
			if bytes.HasPrefix(heads[i], []byte("HEAD ")) {
				method = http.MethodHead
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("answer %d does not parse: %v", i, err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.ContentLength < 0 {
				t.Fatalf("answer %d: body %v, Content-Length %d", i, err, resp.ContentLength)
			}
			if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("answer %d to %q: status %d", i, heads[i], resp.StatusCode)
			}
			if resp.StatusCode != http.StatusOK && method != http.MethodHead {
				var e errShape
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&e); err != nil || e.Error == nil || e.Retryable == nil || e.RetryAfterSeconds == nil {
					t.Fatalf("answer %d to %q: status %d with body %q, want the uniform error shape", i, heads[i], resp.StatusCode, body)
				}
			}
			if resp.Close {
				return
			}
			if i == len(heads)-1 && string(heads[i]) == sentinel && string(body) != "ok\n" {
				t.Fatalf("the closing /healthz answered %d %q", resp.StatusCode, body)
			}
		}
	})
}

// TestBodiesMatchEncodingJSON: the hand-appended success and error bodies
// are byte for byte what encoding/json wrote for the same documents.
func TestBodiesMatchEncodingJSON(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		json.NewEncoder(&b).Encode(v)
		return b.String()
	}
	for _, tc := range []struct {
		shape bodyShape
		res   result
		doc   map[string]any
	}{
		{bodyOK, result{}, map[string]any{"ok": true}},
		{bodyValue, result{value: -7}, map[string]any{"value": -7}},
		{bodyValueKind, result{value: 9, kind: "max"}, map[string]any{"value": 9, "kind": "max"}},
		{bodyMember, result{member: true}, map[string]any{"member": true}},
		{bodyElems, result{}, map[string]any{"elems": []int64(nil)}},
		{bodyElems, result{elems: []int64{}}, map[string]any{"elems": []int64{}}},
		{bodyView, result{elems: []int64{3, 0, 1 << 40}}, map[string]any{"view": []int64{3, 0, 1 << 40}}},
	} {
		var w respWriter
		writeBody(&w, tc.shape, tc.res)
		if got, want := string(w.body), encode(tc.doc); got != want {
			t.Errorf("writeBody(%v, %+v) = %q, want %q", tc.shape, tc.res, got, want)
		}
	}
	// The 405 and 400 reasons too: built once, per method set and parameter.
	v := opsByPath["/maxreg"][0].param
	for _, reason := range []string{"unknown path", `say "x" <&> é` + "\x01 ", "\xff",
		"line\u2028para\u2029 \b\f\n\r\t\\ \ufffd\x7f",
		notAllowed[1], notAllowed[2], notAllowed[3],
		v.outOfRange(defaultMaxValue).Error(), v.unbounded.Error(), v.missing.Error(),
		errMissingKey.Error(), errKeyTooLong.Error()} {
		var w respWriter
		writeErr(&w, http.StatusBadRequest, reason, true, 3)
		want := encode(map[string]any{"error": reason, "retryable": true, "retry_after_seconds": 3})
		if string(w.body) != want {
			t.Errorf("writeErr(%q) = %q, want %q", reason, w.body, want)
		}
	}
	// The reasons built in place from their parts: a malformed X-SL-Gen,
	// quoted as %q quotes it, and the frontend's 503 without an owner.
	odd := []string{"zebra", "", `a"b\c`, "<&>", "\xff\xe2\x82 \xe2\x82\xac", "é\u2028\x00\x7f\t", "\U0010ffff\ufffd"}
	for _, raw := range odd {
		var w respWriter
		badGen(&w, raw)
		reason := fmt.Sprintf("X-SL-Gen must be a non-negative integer, got %q", raw)
		if want := encode(map[string]any{"error": reason, "retryable": false, "retry_after_seconds": 0}); string(w.body) != want {
			t.Errorf("badGen(%q) = %q, want %q", raw, w.body, want)
		}
	}
	f := newTestFrontend(t, []string{"http://127.0.0.1:1"}, fastHealth())
	d := opsByPath["/counter/inc"][0]
	errs := []error{cluster.ErrNoOwner}
	for _, s := range odd {
		errs = append(errs, errors.New(s))
	}
	for _, err := range errs {
		var w respWriter
		f.refuse(&w, d, args{}, nil, "map.p3", err)
		reason := fmt.Sprintf("no reachable owner for %s: %v", "map.p3", err)
		if want := encode(map[string]any{"error": reason, "retryable": true, "retry_after_seconds": 1}); string(w.body) != want {
			t.Errorf("refuse(%v) = %q, want %q", err, w.body, want)
		}
	}
}

// TestStatusTextMatchesNetHTTP: every status slserve answers, each
// writeErr code and parseHead's 417 and 431, has net/http's reason phrase.
func TestStatusTextMatchesNetHTTP(t *testing.T) {
	for _, code := range []int{statusOK, statusBadRequest, statusNotFound, statusMethodNotAllowed,
		statusConflict, statusExpectationFailed, statusTooManyRequests,
		statusRequestHeaderFieldsTooLarge, statusInternalServerError, statusServiceUnavailable} {
		if got, want := statusText(code), http.StatusText(code); got == "" || got != want {
			t.Errorf("statusText(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestWireShutdownDrains: a drain closes an idle keep-alive connection at
// once, lets a request in flight finish with Connection: close, and
// returns when both connections are gone.
func TestWireShutdownDrains(t *testing.T) {
	ws := newServer(4, 2, 0).wire()
	inner, entered, release := ws.handle, make(chan struct{}), make(chan struct{})
	ws.handle = func(w *respWriter, r *request) {
		if r.path == "/slow" {
			close(entered)
			<-release
		}
		inner(w, r)
	}
	ts := startWire(t, ws)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before ts.Close, which waits for the handler
	idle := dialWire(t, ts.URL)
	io.WriteString(idle, "GET /healthz HTTP/1.1\r\n\r\n")
	idleBR := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(idleBR, nil); err != nil || record(t, resp).Code != http.StatusOK {
		t.Fatalf("warm-up on the idle connection: %v", err)
	}
	busy := dialWire(t, ts.URL)
	io.WriteString(busy, "GET /slow HTTP/1.1\r\n\r\n")
	<-entered

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- ws.shutdown(ctx)
	}()
	if n, err := idleBR.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection during the drain: read %d bytes, %v; want it closed", n, err)
	}
	select {
	case err := <-done:
		t.Fatalf("drain returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	unblock()
	busyBR := bufio.NewReader(busy)
	resp, err := http.ReadResponse(busyBR, nil)
	if err != nil || resp.StatusCode != http.StatusNotFound || !resp.Close {
		t.Fatalf("in-flight request = %v, %v; want its answer (404) with Connection: close", resp, err)
	}
	io.Copy(io.Discard, resp.Body)
	if err := <-done; err != nil {
		t.Fatalf("drain = %v, want nil", err)
	}
}
