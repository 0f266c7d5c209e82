package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// serverLanes is slserve's default -lanes: the length of a snapshot view.
const serverLanes = 8

// model is the benchmark's record of what it asked the server to do and what
// the server acknowledged. Every write marks itself issued before it is sent
// and acked after its 200 arrives, so any read can be bounded in real time:
// it must reflect every write acked before the read was sent, and nothing
// that was never issued. Max values are stored as v+1 so 0 means "none".
type model struct {
	counterIssued, counterAcked atomic.Int64
	maxIssued, maxAcked         atomic.Int64
	maxVals                     [valueDomain]atomic.Bool
	gsetIssued, gsetAcked       [gsetDomain]atomic.Bool
	snapVals, msnapVals         [valueDomain]atomic.Bool

	incIssued, incAcked []atomic.Int64 // per famInc key: summed deltas
	mkIssued, mkAcked   []atomic.Int64 // per famMax key: max v+1
	setIssued, setAcked []atomic.Bool  // per famSet key
}

func newModel(keys int) *model {
	return &model{
		incIssued: make([]atomic.Int64, keys), incAcked: make([]atomic.Int64, keys),
		mkIssued: make([]atomic.Int64, keys), mkAcked: make([]atomic.Int64, keys),
		setIssued: make([]atomic.Bool, keys), setAcked: make([]atomic.Bool, keys),
	}
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// checkError is an answer the server should never have given.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// isCheckError reports whether err is a wrong answer rather than a failed
// request.
func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// answer is the union of every JSON body the driven endpoints return.
type answer struct {
	OK     bool    `json:"ok"`
	Value  *int64  `json:"value"`
	Member *bool   `json:"member"`
	View   []int64 `json:"view"`
	Kind   string  `json:"kind"`
	Error  string  `json:"error"`
}

// client is one load-generator connection. The measured loops speak
// HTTP/1.1 over wire; the final checks go through net/http (hc), one
// connection each, so two clients hold at most two connections at a time
// while load runs.
type client struct {
	wire   wireConn
	hc     *http.Client
	base   string // http://host:port
	m      *model
	keys   *keyNames
	target []byte
	body   bytes.Buffer
	ans    answer

	// monotone enables the per-client never-decreasing checks on counter and
	// max-register reads. Off while a fault may answer from the frontend's
	// acked ledger, which is stale-bounded by design.
	monotone             bool
	lastCounter, lastMax int64
}

func newClient(addr string, m *model, keys *keyNames) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{
		wire:     wireConn{addr: addr},
		hc:       &http.Client{Transport: tr, Timeout: wireTimeout},
		base:     "http://" + addr,
		m:        m,
		keys:     keys,
		monotone: true,
	}
}

func (c *client) close() {
	c.wire.close()
	c.hc.CloseIdleConnections()
}

// stamps are the instants of one request: due is when it should have been
// sent (the loop iteration start in a closed loop), ready when the
// generator stopped waiting for it, send just before the HTTP call, resp
// once the response body is read, done once the answer is checked.
type stamps struct{ due, ready, send, resp, done time.Time }

func (c *client) key(o op) string { return c.keys[o.fam][o.key] }

// path is the last request's path and query, for messages.
func (c *client) path() string { return string(c.target) }

// request writes o's path and query into c.target, marks its write issued
// and returns its method.
func (c *client) request(o op) string {
	m := c.m
	t := c.target[:0]
	method := http.MethodGet
	switch o.kind {
	case opCounterInc:
		m.counterIssued.Add(1)
		method, t = http.MethodPost, append(t, "/counter/inc"...)
	case opCounterRead:
		t = append(t, "/counter"...)
	case opMaxregWrite:
		m.maxVals[o.val].Store(true)
		storeMax(&m.maxIssued, o.val+1)
		method, t = http.MethodPost, strconv.AppendInt(append(t, "/maxreg?v="...), o.val, 10)
	case opMaxregRead:
		t = append(t, "/maxreg"...)
	case opGSetAdd:
		m.gsetIssued[o.val].Store(true)
		method, t = http.MethodPost, strconv.AppendInt(append(t, "/gset?x="...), o.val, 10)
	case opGSetHas:
		t = strconv.AppendInt(append(t, "/gset?x="...), o.val, 10)
	case opSnapUpdate:
		m.snapVals[o.val].Store(true)
		method, t = http.MethodPost, strconv.AppendInt(append(t, "/snapshot?v="...), o.val, 10)
	case opSnapScan:
		t = append(t, "/snapshot"...)
	case opMsnapUpdate:
		m.msnapVals[o.val].Store(true)
		method, t = http.MethodPost, strconv.AppendInt(append(t, "/msnapshot?v="...), o.val, 10)
	case opMsnapScan:
		t = append(t, "/msnapshot"...)
	case opMapInc:
		m.incIssued[o.key].Add(1)
		method, t = http.MethodPost, append(append(t, "/map/inc?k="...), c.key(o)...)
	case opMapMax:
		storeMax(&m.mkIssued[o.key], o.val+1)
		t = append(append(t, "/map/max?k="...), c.key(o)...)
		method, t = http.MethodPost, strconv.AppendInt(append(t, "&v="...), o.val, 10)
	case opMapGet:
		t = append(append(t, "/map/get?k="...), c.key(o)...)
	case opKGSetAdd:
		m.setIssued[o.key].Store(true)
		method, t = http.MethodPost, append(append(t, "/kgset/add?k="...), c.key(o)...)
	case opKGSetHas:
		t = append(append(t, "/kgset/has?k="...), c.key(o)...)
	default:
		panic(fmt.Sprintf("unknown op kind %d", o.kind))
	}
	c.target = t
	return method
}

// lowerBound reads, before a read is sent, what that read must reflect: the
// writes acked so far.
func (c *client) lowerBound(o op) int64 {
	m := c.m
	switch o.kind {
	case opCounterRead:
		return m.counterAcked.Load()
	case opMaxregRead:
		return m.maxAcked.Load()
	case opGSetHas:
		return b2i(m.gsetAcked[o.val].Load())
	case opMapGet:
		if o.fam == famInc {
			return m.incAcked[o.key].Load()
		}
		return m.mkAcked[o.key].Load()
	case opKGSetHas:
		if o.fam == famSet {
			return b2i(m.setAcked[o.key].Load())
		}
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// do sends o and checks its answer. ts.due and ts.ready are the caller's;
// do fills in the rest. A non-nil error is either a failed request or a
// *checkError for a wrong answer.
func (c *client) do(o op, ts *stamps) error {
	lo := c.lowerBound(o)
	method := c.request(o)
	ts.send = time.Now()
	resp, err := c.wire.roundTrip(method, c.target, &c.body)
	ts.resp = time.Now()
	defer func() { ts.done = time.Now() }()
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, c.path(), err)
	}
	c.ans = answer{}
	if err := json.Unmarshal(resp.body, &c.ans); err != nil {
		return badf("%s %s: status %d, undecodable body %q", method, c.path(), resp.status, resp.body)
	}
	if resp.status == http.StatusNotFound && o.kind == opMapGet {
		// A committed "unknown key" is correct only if no write to the key
		// was acked before the read was sent.
		if lo != 0 {
			return badf("GET %s: 404 after an acked write", c.path())
		}
		return nil
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, c.path(), resp.status, c.ans.Error)
	}
	return c.check(o, lo, resp.degraded)
}

// check validates a 200 answer and records acked writes.
func (c *client) check(o op, lo int64, degraded bool) error {
	m, a := c.m, &c.ans
	needValue := func() (int64, error) {
		if a.Value == nil {
			return 0, badf("GET %s: no value in answer", c.path())
		}
		return *a.Value, nil
	}
	switch o.kind {
	case opCounterInc, opMaxregWrite, opGSetAdd, opSnapUpdate, opMsnapUpdate, opMapInc, opMapMax, opKGSetAdd:
		if !a.OK {
			return badf("POST %s: 200 without ok", c.path())
		}
		switch o.kind {
		case opCounterInc:
			m.counterAcked.Add(1)
		case opMaxregWrite:
			storeMax(&m.maxAcked, o.val+1)
		case opGSetAdd:
			m.gsetAcked[o.val].Store(true)
		case opMapInc:
			m.incAcked[o.key].Add(1)
		case opMapMax:
			storeMax(&m.mkAcked[o.key], o.val+1)
		case opKGSetAdd:
			m.setAcked[o.key].Store(true)
		}
	case opCounterRead:
		v, err := needValue()
		if err != nil {
			return err
		}
		if hi := m.counterIssued.Load(); v < lo || v > hi {
			return badf("GET %s = %d, want within [%d acked, %d issued]", c.path(), v, lo, hi)
		}
		if c.monotone && !degraded {
			if v < c.lastCounter {
				return badf("GET %s = %d decreased from %d", c.path(), v, c.lastCounter)
			}
			c.lastCounter = v
		}
	case opMaxregRead:
		v, err := needValue()
		if err != nil {
			return err
		}
		if err := c.checkMax(v, lo, m.maxIssued.Load()); err != nil {
			return err
		}
		if v < 0 || v >= valueDomain || (v > 0 && !m.maxVals[v].Load()) {
			return badf("GET %s = %d, a value never written", c.path(), v)
		}
		if c.monotone && !degraded {
			if v < c.lastMax {
				return badf("GET %s = %d decreased from %d", c.path(), v, c.lastMax)
			}
			c.lastMax = v
		}
	case opGSetHas:
		if a.Member == nil {
			return badf("GET %s: no member in answer", c.path())
		}
		if lo == 1 && !*a.Member {
			return badf("GET %s: acked element missing", c.path())
		}
		if *a.Member && !m.gsetIssued[o.val].Load() {
			return badf("GET %s: element never added is present", c.path())
		}
	case opSnapScan, opMsnapScan:
		vals := &m.snapVals
		if o.kind == opMsnapScan {
			vals = &m.msnapVals
		}
		if len(a.View) != serverLanes {
			return badf("GET %s: view has %d components, want %d", c.path(), len(a.View), serverLanes)
		}
		for i, v := range a.View {
			if v < 0 || v >= valueDomain || (v > 0 && !vals[v].Load()) {
				return badf("GET %s: component %d = %d, a value never written", c.path(), i, v)
			}
		}
	case opMapGet:
		v, err := needValue()
		if err != nil {
			return err
		}
		if o.fam == famInc {
			if a.Kind != "counter" {
				return badf("GET %s: kind %q, want counter", c.path(), a.Kind)
			}
			if hi := m.incIssued[o.key].Load(); v < lo || v > hi {
				return badf("GET %s = %d, want within [%d acked, %d issued]", c.path(), v, lo, hi)
			}
			break
		}
		if a.Kind != "max" {
			return badf("GET %s: kind %q, want max", c.path(), a.Kind)
		}
		return c.checkMax(v, lo, m.mkIssued[o.key].Load())
	case opKGSetHas:
		if a.Member == nil {
			return badf("GET %s: no member in answer", c.path())
		}
		if o.fam == famAbsent && *a.Member {
			return badf("GET %s: key never added is present", c.path())
		}
		if lo == 1 && !*a.Member {
			return badf("GET %s: acked key missing", c.path())
		}
		if o.fam == famSet && *a.Member && !m.setIssued[o.key].Load() {
			return badf("GET %s: key never added is present", c.path())
		}
	}
	return nil
}

// checkMax bounds a max-register read v by the encoded (v+1) acked-before-
// send and issued-by-now maxima.
func (c *client) checkMax(v, ackedEnc, issuedEnc int64) error {
	if v < ackedEnc-1 || (issuedEnc == 0 && v != 0) || (issuedEnc > 0 && v > issuedEnc-1) {
		return badf("GET %s = %d, want within [%d acked, %d issued]", c.path(), v, ackedEnc-1, issuedEnc-1)
	}
	return nil
}

// getJSON issues a GET outside the measured loops (final checks, stats) and
// decodes the body into out.
func (c *client) getJSON(path string, out any) (status int, err error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("GET %s: decoding: %w", path, err)
	}
	return resp.StatusCode, nil
}
