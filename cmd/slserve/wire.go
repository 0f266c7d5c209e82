package main

// The HTTP/1.1 server of every slserve listener: both tiers' data listeners
// and the -debug-addr listener (debug.go). One goroutine per connection
// reads a request head, parses it in place, runs the listener's handler
// inline and appends the framed response to a per-connection buffer, which
// goes out in one write once no pipelined request is waiting.
// net/http.Server spends about twice the CPU per request (a background read
// goroutine, per-request header maps and contexts, a chunking writer); the
// served subset is narrow enough to need none of that:
//
//   - GET, POST and HEAD over HTTP/1.1 keep-alive, pipelined requests
//     answered in order (another method reaches the handler, whose object
//     endpoints answer 405); HTTP/1.0 and Connection: close end the
//     connection after the answer;
//   - no request bodies: Content-Length: 0 is accepted, any other length or
//     a Transfer-Encoding gets 400 and Expect 417, each followed by a close;
//   - a head of at most maxHeadBytes (431 and a close past it), read within
//     readHeaderTimeout of its first byte; an idle connection has no
//     deadline, as net/http.Server without IdleTimeout;
//   - every answer carries Content-Length, never chunked framing, and every
//     refusal the uniform {error, retryable, retry_after_seconds} body.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	neturl "net/url"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"stronglin/internal/obs"
)

// The methods slserve serves, and the statuses it answers.
const (
	methodGet  = "GET"
	methodPost = "POST"
	methodHead = "HEAD"

	statusOK                          = 200
	statusBadRequest                  = 400
	statusNotFound                    = 404
	statusMethodNotAllowed            = 405
	statusConflict                    = 409
	statusExpectationFailed           = 417
	statusTooManyRequests             = 429
	statusRequestHeaderFieldsTooLarge = 431
	statusInternalServerError         = 500
	statusServiceUnavailable          = 503
)

// statusText is code's reason phrase, "" for a code slserve does not
// answer itself (the frontend forwards a backend's refusal with its code).
func statusText(code int) string {
	switch code {
	case statusOK:
		return "OK"
	case statusBadRequest:
		return "Bad Request"
	case statusNotFound:
		return "Not Found"
	case statusMethodNotAllowed:
		return "Method Not Allowed"
	case statusConflict:
		return "Conflict"
	case statusExpectationFailed:
		return "Expectation Failed"
	case statusTooManyRequests:
		return "Too Many Requests"
	case statusRequestHeaderFieldsTooLarge:
		return "Request Header Fields Too Large"
	case statusInternalServerError:
		return "Internal Server Error"
	case statusServiceUnavailable:
		return "Service Unavailable"
	}
	return ""
}

// maxHeadBytes caps a request head: request line, headers and the blank
// line that ends them. It is also the connection's read buffer size, so a
// head is always parsed whole from the buffer.
const maxHeadBytes = 8 << 10

// request is one parsed request head. Its strings are views of the
// connection's read buffer, not copies: they stay valid until the answer is
// framed, because the buffer refills only when the next head is read. A
// handler that keeps a request string past its answer (a directory key, a
// ledger identity) must store a clone.
type request struct {
	ctx    context.Context // ends when the server is closed or its drain times out
	method string
	target string // the raw request-target, which the frontend forwards verbatim
	path   string // the target's path, unescaped
	query  query  // the target's raw query
	gen    string // the first X-SL-Gen header's value, "" when absent
	close  bool   // Connection: close, or HTTP/1.0
}

// query is a raw URL query. Get answers what url.ParseQuery(q).Get(name)
// would, without building the map.
type query string

func (q query) Get(name string) string {
	for s := string(q); s != ""; {
		var pair string
		pair, s, _ = strings.Cut(s, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := unescapeQuery(k); err != nil || k != name {
			continue
		}
		if v, err := unescapeQuery(v); err == nil {
			return v
		}
	}
	return ""
}

func unescapeQuery(s string) (string, error) {
	if !strings.ContainsAny(s, "%+") {
		return s, nil
	}
	return neturl.QueryUnescape(s)
}

// respWriter collects one response; the connection frames it.
type respWriter struct {
	code  int
	ctype string
	hdr   []byte // extra header lines, each ending in CRLF
	body  []byte
	view  []int64 // the connection's scan buffer (scanBuf)
}

// scanBuf is the connection's scan buffer of n components, kept across its
// requests: a snapshot scan writes its view there under the lane lease, and
// the answer reads it once the lease is released.
func (w *respWriter) scanBuf(n int) []int64 {
	if len(w.view) != n {
		w.view = make([]int64, n)
	}
	return w.view
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *respWriter) setHeader(name, value string) {
	w.hdr = append(append(append(append(w.hdr, name...), ": "...), value...), "\r\n"...)
}

// wireServer serves one tier's handler on its data listener. The request
// instruments observe each request from its parsed head to its buffered
// answer; byPath adds the per-endpoint split (nil: aggregate only).
type wireServer struct {
	handle      func(*respWriter, *request)
	total, errs *obs.Counter
	dur         *obs.Histogram
	byPath      map[string]*obs.Histogram

	ctx    context.Context
	cancel context.CancelFunc

	closing atomic.Bool // no more requests start on a connection
	mu      sync.Mutex
	ln      net.Listener
	conns   map[*serverConn]struct{}
	wg      sync.WaitGroup
}

func newWireServer(handle func(*respWriter, *request), total, errs *obs.Counter, dur *obs.Histogram, byPath map[string]*obs.Histogram) *wireServer {
	ctx, cancel := context.WithCancel(context.Background())
	return &wireServer{handle: handle, total: total, errs: errs, dur: dur, byPath: byPath,
		ctx: ctx, cancel: cancel, conns: make(map[*serverConn]struct{})}
}

// Connection states. A connection is idle while it waits for the first
// byte of its next request with nothing left to answer; only then may a
// drain close it under the client's feet.
const (
	connActive int32 = iota
	connIdle
	connClosed
)

type serverConn struct {
	c     net.Conn
	br    *bufio.Reader
	out   []byte // framed answers not yet written
	state atomic.Int32
}

var errServerClosed = errors.New("server closed")

// serve accepts connections on ln until shutdown or close, and returns
// errServerClosed then; any other accept failure is returned as is.
func (ws *wireServer) serve(ln net.Listener) error {
	ws.mu.Lock()
	ws.ln = ln
	ws.mu.Unlock()
	if ws.closing.Load() {
		ln.Close()
	}
	var backoff time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			if ws.closing.Load() {
				return errServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of file descriptors or another transient accept error:
			// back off as net/http does instead of spinning.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		sc := &serverConn{c: c, br: bufio.NewReaderSize(c, maxHeadBytes)}
		ws.mu.Lock()
		if ws.closing.Load() {
			ws.mu.Unlock()
			c.Close()
			continue
		}
		ws.conns[sc] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()
		go ws.serveConn(sc)
	}
}

// shutdown stops accepting, closes idle connections, and waits until every
// request in flight is answered and its connection closed, or ctx ends.
func (ws *wireServer) shutdown(ctx context.Context) error {
	ws.stopAccepting()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		ws.mu.Lock()
		n := len(ws.conns)
		for sc := range ws.conns {
			if sc.state.CompareAndSwap(connIdle, connClosed) {
				sc.c.Close()
			}
		}
		ws.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			ws.cancel()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// close drops the listener and every connection at once, a crash rather
// than a drain, and returns when every connection goroutine has exited.
func (ws *wireServer) close() {
	ws.stopAccepting()
	ws.cancel()
	ws.mu.Lock()
	for sc := range ws.conns {
		sc.c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

func (ws *wireServer) stopAccepting() {
	ws.closing.Store(true)
	ws.mu.Lock()
	if ws.ln != nil {
		ws.ln.Close()
	}
	ws.mu.Unlock()
}

// serveConn runs one connection's requests in order. A panicking handler
// closes this connection only, as net/http's per-request recover does.
func (ws *wireServer) serveConn(sc *serverConn) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "slserve: panic serving %v: %v\n%s", sc.c.RemoteAddr(), p, debug.Stack())
		}
		sc.c.Close()
		ws.mu.Lock()
		delete(ws.conns, sc)
		ws.mu.Unlock()
		ws.wg.Done()
	}()
	var w respWriter
	var req request
	for {
		if sc.br.Buffered() == 0 {
			if !sc.flush() {
				return
			}
			// Idle until the next request's first byte. The state store
			// and the closing load below pair with shutdown's closing store
			// and state CAS: either this side sees the drain and leaves, or
			// the drain sees the connection idle and closes it.
			sc.state.Store(connIdle)
			if ws.closing.Load() {
				return
			}
			if _, err := sc.br.Peek(1); err != nil || !sc.state.CompareAndSwap(connIdle, connActive) {
				return
			}
		}
		head, err := sc.readHead()
		req = request{ctx: ws.ctx}
		w = respWriter{code: statusOK, hdr: w.hdr[:0], body: w.body[:0], view: w.view}
		code, reason := statusRequestHeaderFieldsTooLarge, "request head larger than 8 KiB"
		if err == nil {
			// req's strings view head in the read buffer. Discard moves no
			// bytes; only the next head's read refills the buffer, after
			// this answer is framed.
			code, reason = parseHead(head, &req)
			sc.br.Discard(len(head))
		} else if !errors.Is(err, bufio.ErrBufferFull) {
			return // the client left or stalled mid-head
		}
		if code != 0 {
			writeErr(&w, code, reason, false, 0)
			sc.frame(&w, req.method, true)
			sc.lingeringClose()
			return
		}
		t0 := time.Now()
		ws.handle(&w, &req)
		closeAfter := req.close || ws.closing.Load()
		sc.frame(&w, req.method, closeAfter)
		ns := time.Since(t0).Nanoseconds()
		ws.total.Inc()
		if w.code >= 400 {
			ws.errs.Inc()
		}
		ws.dur.Observe(ns)
		ws.byPath[req.path].Observe(ns)
		if closeAfter {
			sc.lingeringClose()
			return
		}
		if len(sc.out) >= 64<<10 && !sc.flush() {
			return
		}
	}
}

// readHead returns the next request head from the read buffer, reading
// until its blank line, under readHeaderTimeout once it has to wait. A head
// that fills the buffer without ending fails with bufio.ErrBufferFull.
func (sc *serverConn) readHead() ([]byte, error) {
	waited := false
	defer func() {
		if waited {
			sc.c.SetReadDeadline(time.Time{})
		}
	}()
	for {
		buf, _ := sc.br.Peek(sc.br.Buffered())
		if n := headLen(buf); n > 0 {
			return buf[:n], nil
		}
		if !waited {
			waited = true
			sc.c.SetReadDeadline(time.Now().Add(readHeaderTimeout))
		}
		if _, err := sc.br.Peek(len(buf) + 1); err != nil {
			return nil, err
		}
	}
}

// headLen is the length of the head at the start of buf through its blank
// line (CRLF or bare LF line endings), or 0 if buf holds no complete head.
func headLen(buf []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return 0
		}
		i += j + 1
		switch {
		case i < len(buf) && buf[i] == '\n':
			return i + 1
		case i+1 < len(buf) && buf[i] == '\r' && buf[i+1] == '\n':
			return i + 2
		}
	}
}

// parseHead parses a complete head into r. It returns code 0 for a request
// to serve, or the status and reason of its refusal.
func parseHead(head []byte, r *request) (code int, reason string) {
	line, rest, _ := bytes.Cut(head, []byte("\n"))
	line = bytes.TrimSuffix(line, []byte("\r"))
	method, line, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(line, []byte(" "))
	if !ok1 || !ok2 || !isToken(method) {
		return statusBadRequest, "malformed request line"
	}
	switch string(proto) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		r.close = true
	default:
		return statusBadRequest, "only HTTP/1.1 and HTTP/1.0 are served"
	}
	if len(target) == 0 || target[0] != '/' {
		return statusBadRequest, "request target must be an absolute path"
	}
	for _, c := range target {
		if c <= ' ' || c == 0x7f {
			return statusBadRequest, "malformed request target"
		}
	}
	r.method = view(method)
	var body, expect bool
	for len(rest) > 0 {
		var h []byte
		h, rest, _ = bytes.Cut(rest, []byte("\n"))
		h = bytes.TrimSuffix(h, []byte("\r"))
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok || !isToken(name) {
			return statusBadRequest, "malformed header line"
		}
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			body = body || len(value) == 0 || len(bytes.Trim(value, "0")) != 0
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			body = true
		case bytes.EqualFold(name, []byte("Expect")):
			expect = true
		case bytes.EqualFold(name, []byte("Connection")):
			for _, tok := range bytes.Split(value, []byte(",")) {
				if bytes.EqualFold(bytes.Trim(tok, " \t"), []byte("close")) {
					r.close = true
				}
			}
		case bytes.EqualFold(name, []byte("X-SL-Gen")):
			if r.gen == "" {
				r.gen = view(value)
			}
		}
	}
	switch {
	case expect: // the client holds its body back until told to send it
		return statusExpectationFailed, "request bodies are not accepted"
	case body:
		return statusBadRequest, "request bodies are not accepted"
	}
	r.target = view(target)
	path, q, _ := strings.Cut(r.target, "?")
	if strings.Contains(path, "%") {
		var err error
		if path, err = neturl.PathUnescape(path); err != nil {
			return statusBadRequest, "malformed request target"
		}
	}
	r.path, r.query = path, query(q)
	return 0, ""
}

// view is b as a string without a copy, valid while b's bytes stay put.
func view(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// isToken reports whether b is a non-empty RFC 9110 token (a method or a
// header name).
func isToken(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, c) >= 0 {
			return false
		}
	}
	return len(b) > 0
}

// frame appends w as a response to a request of method. Every answer
// carries Content-Length; a HEAD answer's body is counted but not sent.
func (sc *serverConn) frame(w *respWriter, method string, closeAfter bool) {
	b := append(sc.out, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(w.code), 10)
	b = append(append(append(b, ' '), statusText(w.code)...), "\r\n"...)
	if w.ctype != "" {
		b = append(append(append(b, "Content-Type: "...), w.ctype...), "\r\n"...)
	}
	b = append(b, w.hdr...)
	b = strconv.AppendInt(append(b, "Content-Length: "...), int64(len(w.body)), 10)
	if closeAfter {
		b = append(b, "\r\nConnection: close"...)
	}
	b = append(b, "\r\n\r\n"...)
	if method != methodHead {
		b = append(b, w.body...)
	}
	sc.out = b
}

// flush writes the buffered answers; false means the connection failed.
func (sc *serverConn) flush() bool {
	if len(sc.out) == 0 {
		return true
	}
	_, err := sc.c.Write(sc.out)
	sc.out = sc.out[:0]
	return err == nil
}

// lingeringClose sends the buffered answers, then half-closes and drains
// what the client already sent for a moment before the deferred close, so
// that unread input (a refused body, pipelined requests) does not turn the
// close into a reset that destroys the answers in flight.
func (sc *serverConn) lingeringClose() {
	if !sc.flush() {
		return
	}
	if hc, ok := sc.c.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
		sc.c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, io.LimitReader(sc.c, 256<<10))
	}
}
