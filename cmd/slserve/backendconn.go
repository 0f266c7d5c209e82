package main

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
	"slices"
	"strconv"
	"sync"
	"time"

	"stronglin/internal/obs"
)

// Body limits on backend answers: a 200 past okBodyLimit is an error (the
// proxy would otherwise forward a truncated answer); an error body is only
// read for its {error, retryable, retry_after_seconds} shape, so past
// errBodyLimit the rest is drained unread to keep the connection in sync.
const (
	okBodyLimit  = 1 << 20
	errBodyLimit = 4 << 10
)

// backendPool is the frontend's connections to one backend: keep-alive TCP
// connections driven on the calling goroutine. net/http's client spends two
// transport goroutines and their channel hand-offs on every round trip, more
// CPU than the backend spends serving it; here a round trip is one Write and
// an in-place parse of the narrow HTTP/1.1 subset slserve answers with.
type backendPool struct {
	addr    string // host:port to dial
	host    string // Host header
	timeout time.Duration
	maxIdle int
	dials   *obs.Counter

	mu   sync.Mutex
	idle []*backendConn // LIFO: the most recently used connection is the warmest
}

type backendConn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte // request buffer, reused per connection

	// ctx is the context whose end tears the connection down, and stop
	// unregisters that teardown. The registration outlives an exchange:
	// the data path runs every exchange under the listener's context, so
	// it registers once per connection instead of once per round trip.
	ctx  context.Context
	stop func() bool
}

// newBackendPool parses a backend base URL, which must be http://host[:port].
func newBackendPool(base string, timeout time.Duration, maxIdle int, dials *obs.Counter) (*backendPool, error) {
	u, err := neturl.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil ||
		(u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("backend %q: want http://host[:port]", base)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &backendPool{addr: addr, host: u.Host, timeout: timeout, maxIdle: maxIdle, dials: dials}, nil
}

// roundTrip sends method uri carrying X-SL-Gen: gen (none for a negative
// gen) and returns the status and dst with the body appended. Any error or
// Connection: close closes the connection; otherwise it returns to the
// idle pool. The pool replays
// only what net/http would: a GET whose reused idle connection failed before
// any response byte arrived is redialed once. A POST is never replayed here.
func (p *backendPool) roundTrip(ctx context.Context, method, uri string, gen int64, dst []byte) (code int, body []byte, err error) {
	bc := p.get(ctx)
	reused := bc != nil
	for {
		if bc == nil {
			if bc, err = p.dial(ctx); err != nil {
				break
			}
		}
		var keep, silent bool
		code, body, keep, silent, err = p.exchange(ctx, bc, method, uri, gen, dst)
		if err == nil && keep {
			p.put(bc)
		} else {
			bc.close()
		}
		if err == nil || !reused || !silent || ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		// The backend closed this connection while it sat idle (a restart,
		// a drain). Its idle siblings were opened to the same process.
		p.closeIdle()
		if method != methodGet {
			break
		}
		bc, reused = nil, false
	}
	if err != nil && ctx.Err() != nil && err != ctx.Err() {
		err = fmt.Errorf("%w: %v", ctx.Err(), err)
	}
	return code, body, err
}

// exchange runs one request on bc. silent reports that the error struck
// before any response byte arrived. A cancelled ctx tears the connection
// down by moving its deadline into the past; since that teardown can land
// after the exchange returns, such a connection is never kept.
func (p *backendPool) exchange(ctx context.Context, bc *backendConn, method, uri string, gen int64, dst []byte) (code int, body []byte, keep, silent bool, err error) {
	if err = bc.c.SetDeadline(time.Now().Add(p.timeout)); err != nil {
		return 0, nil, false, true, err
	}
	// Checked after the deadline is set: a teardown that ran before the
	// set would be overwritten by it, so its context must be seen here.
	if err = ctx.Err(); err != nil {
		return 0, nil, false, true, err
	}
	defer func() {
		if ctx.Err() != nil {
			keep = false
		}
	}()
	bc.req = append(bc.req[:0], method...)
	bc.req = append(bc.req, ' ')
	bc.req = append(bc.req, uri...)
	bc.req = append(bc.req, " HTTP/1.1\r\nHost: "...)
	bc.req = append(bc.req, p.host...)
	if gen >= 0 {
		bc.req = append(bc.req, "\r\nX-SL-Gen: "...)
		bc.req = strconv.AppendInt(bc.req, gen, 10)
	}
	if method == methodPost {
		bc.req = append(bc.req, "\r\nContent-Length: 0"...)
	}
	bc.req = append(bc.req, "\r\n\r\n"...)
	if _, err = bc.c.Write(bc.req); err != nil {
		return 0, nil, false, true, err
	}
	if _, err = bc.br.Peek(1); err != nil {
		return 0, nil, false, true, err
	}
	code, body, keep, err = readResponse(bc.br, method, dst)
	return code, body, keep, false, err
}

// watch makes ctx's end tear bc down mid-exchange. It reports false when
// the teardown of the context bc watched before already ran, which leaves
// bc's deadline unusable.
func (bc *backendConn) watch(ctx context.Context) bool {
	if bc.ctx == ctx {
		return true
	}
	if bc.stop != nil && !bc.stop() {
		return false
	}
	bc.ctx, bc.stop = ctx, nil
	if ctx.Done() != nil {
		bc.stop = context.AfterFunc(ctx, func() { bc.c.SetDeadline(time.Unix(1, 0)) })
	}
	return true
}

// close closes the connection and drops its teardown registration.
func (bc *backendConn) close() {
	if bc.stop != nil {
		bc.stop()
	}
	bc.c.Close()
}

// readResponse parses one HTTP/1.1 response in place and appends its body
// to dst. Only two headers matter: Content-Length, which every slserve
// answer carries (wire.go), and Connection: close. An answer framed any
// other way, a chunked one included, is an error. keep is false on any
// error.
func readResponse(br *bufio.Reader, method string, dst []byte) (code int, body []byte, keep bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 13 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, nil, false, fmt.Errorf("malformed status line %q", line)
	}
	code, ok := atoiBytes(line[9:12])
	if !ok || code < 100 || (line[12] != ' ' && line[12] != '\r' && line[12] != '\n') {
		return 0, nil, false, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	keep = line[7] == '1'
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, nil, false, fmt.Errorf("malformed header %q", h)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = atoiBytes(value); !ok {
				return 0, nil, false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return 0, nil, false, fmt.Errorf("unsupported Transfer-Encoding %q", value)
		case bytes.EqualFold(name, []byte("Connection")):
			if bytes.EqualFold(value, []byte("close")) {
				keep = false
			}
		}
	}
	limit := errBodyLimit
	if code == statusOK {
		limit = okBodyLimit
	}
	body = dst
	switch {
	case method == methodHead:
	case length >= 0:
		if length > limit && code == statusOK {
			return 0, nil, false, fmt.Errorf("backend answer of %d bytes over the body limit", length)
		}
		n := min(length, limit)
		body = slices.Grow(body, n)[:len(body)+n]
		if _, err = io.ReadFull(br, body[len(dst):]); err == nil && length > limit {
			_, err = br.Discard(length - limit)
		}
	default:
		return 0, nil, false, errors.New("backend answer without a length")
	}
	if err != nil {
		return 0, nil, false, err
	}
	return code, body, keep, nil
}

// atoiBytes parses 1-9 ASCII digits, so it can neither overflow nor accept a
// sign.
func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func (p *backendPool) dial(ctx context.Context) (*backendConn, error) {
	p.dials.Inc()
	d := net.Dialer{Timeout: p.timeout}
	c, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	bc := &backendConn{c: c, br: bufio.NewReader(c)}
	bc.watch(ctx)
	return bc, nil
}

// get takes the warmest idle connection that can watch ctx, or nil.
func (p *backendPool) get(ctx context.Context) *backendConn {
	for {
		p.mu.Lock()
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			return nil
		}
		bc := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if bc.watch(ctx) {
			return bc
		}
		bc.close()
	}
}

func (p *backendPool) put(bc *backendConn) {
	p.mu.Lock()
	if len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, bc)
		bc = nil
	}
	p.mu.Unlock()
	if bc != nil {
		bc.close()
	}
}

func (p *backendPool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, bc := range idle {
		bc.close()
	}
}
