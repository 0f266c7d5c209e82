package main

// The object table: one descriptor per (path, method) of the served
// surface. Both tiers dispatch from it. The backend derives its handler,
// fence gates, op counters and per-endpoint histograms from the table; the
// frontend derives its routes, acked ledgers, seeding and degraded reads.
// The wrapper around every object — fence gate, lane lease, uniform error
// shape, ack fold, seed — does not depend on the object, which is the
// composition argument for strong linearizability made concrete: each
// descriptor only says how to parse its query and which engine step to run.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	neturl "net/url"
	"slices"
	"strconv"
	"strings"

	"stronglin"
)

// args is one request's parsed query: the key of a keyed op and its
// integer parameter. n starts at 1, so a parameterless write (/counter/inc)
// and a defaulted one (/map/inc without d) both count once.
type args struct {
	key string
	n   int64
}

// result is an engine step's answer; the descriptor's body picks the
// fields that go on the wire.
type result struct {
	value  int64
	kind   string
	member bool
	elems  []int64
}

// bodyShape is an op's success body.
type bodyShape int

const (
	bodyOK        bodyShape = iota // {"ok":true}
	bodyValue                      // {"value":N}
	bodyValueKind                  // {"value":N,"kind":"counter"|"max"}
	bodyMember                     // {"member":B}
	bodyElems                      // {"elems":[...]}
	bodyView                       // {"view":[...]}
)

// ackKind is how the frontend folds an acked write into its ledger.
type ackKind int

const (
	ackNone ackKind = iota // reads, and writes the frontend does not route
	ackSum                 // acked amounts add up; a stolen slot's ack is withdrawn
	ackMax                 // the largest acked value
	ackSet                 // every acked element
)

// ident is a write's identity in its ledger: sum and max writes to one key
// fold into one entry; a set write is its element.
func (k ackKind) ident(a args) args {
	if k == ackSet {
		return a
	}
	return args{key: a.key}
}

// param is an op's integer query parameter, accepted in [min, max(s)].
// An optional parameter may be absent and then leaves n at 1.
type param struct {
	name     string
	min      int64
	max      func(*server) int64
	optional bool
	// missing and unbounded (outside [min, MaxInt64], the frontend's check)
	// are its 400 reasons, built once; server.outOfRange holds a backend's.
	missing, unbounded error
}

// outOfRange is p's 400 reason for a value outside [p.min, hi].
func (p *param) outOfRange(hi int64) error {
	return fmt.Errorf("query parameter %q must be an integer in [%d, %d]", p.name, p.min, hi)
}

func valueCap(s *server) int64 { return s.maxValue }
func fieldCap(s *server) int64 { return s.kmap.FieldCap() }
func counterCap(*server) int64 { return counterBound }

// op is one descriptor.
type op struct {
	path, method string
	// stat names the /stats op counter.
	stat string
	// object is the routed object ("" = served by the backend only, never
	// fenced); a keyed object routes and fences by key partition.
	object string
	keyed  bool
	param  *param
	apply  func(s *server, t stronglin.Thread, a args) (result, error)
	body   bodyShape
	// ack is the frontend's ledger fold for a routed write. read is the
	// GET path that reads the object back, for seeding: a sum is seeded by
	// the difference against the successor's read, and a dense object's
	// graceful handoff merges the old owner's read. seed is the path that
	// replays a ledger entry (default: the op's own path). degraded names
	// the writes (by stat) whose ledgers answer a read while no owner is
	// reachable.
	ack      ackKind
	read     string
	seed     string
	degraded []string

	routes []string // route key per partition (one for a dense object)
}

// The served objects. Adding an object is one entry per (path, method).
var objects = []*op{
	{path: "/counter/inc", method: http.MethodPost, stat: "counter_inc",
		object: "counter", apply: counterAdd, body: bodyOK,
		ack: ackSum, read: "/counter", seed: "/counter/add"},
	// The migration surface: a routing tier seeds a new owner's counter
	// with one add instead of replaying N increments.
	{path: "/counter/add", method: http.MethodPost, stat: "counter_inc",
		object: "counter", param: &param{name: "d", max: counterCap}, apply: counterAdd, body: bodyOK},
	{path: "/counter", method: http.MethodGet, stat: "counter_read",
		object: "counter", body: bodyValue, degraded: []string{"counter_inc"},
		apply: func(s *server, t stronglin.Thread, _ args) (result, error) {
			return result{value: s.counter.Read(t)}, nil
		}},
	{path: "/maxreg", method: http.MethodPost, stat: "maxreg_write",
		object: "maxreg", param: &param{name: "v", max: valueCap}, body: bodyOK, ack: ackMax, read: "/maxreg",
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			s.maxreg.WriteMax(t, a.n)
			return result{}, nil
		}},
	{path: "/maxreg", method: http.MethodGet, stat: "maxreg_read",
		object: "maxreg", body: bodyValue, degraded: []string{"maxreg_write"},
		apply: func(s *server, t stronglin.Thread, _ args) (result, error) {
			return result{value: s.maxreg.ReadMax(t)}, nil
		}},
	{path: "/gset", method: http.MethodPost, stat: "gset_add",
		object: "gset", param: &param{name: "x", max: valueCap}, body: bodyOK, ack: ackSet, read: "/gset",
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			s.gset.Add(t, a.n)
			return result{}, nil
		}},
	// GET /gset?x=N is a membership query; without x it lists the set.
	{path: "/gset", method: http.MethodGet, stat: "gset_has",
		object: "gset", param: &param{name: "x", max: valueCap}, body: bodyMember, degraded: []string{"gset_add"},
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			return result{member: s.gset.Has(t, a.n)}, nil
		}},
	{path: "/gset", method: http.MethodGet, stat: "gset_elems",
		object: "gset", body: bodyElems, degraded: []string{"gset_add"},
		apply: func(s *server, t stronglin.Thread, _ args) (result, error) {
			return result{elems: s.gset.Elems(t)}, nil
		}},
	{path: "/kgset/add", method: http.MethodPost, stat: "kgset_add",
		object: "kgset", keyed: true, body: bodyOK, ack: ackSet,
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			return result{}, growFull(
				func() error { return s.kgset.Add(t, a.key) },
				func() error { return s.kgset.Rehash(t, 2*s.kgset.Buckets(t)) })
		}},
	{path: "/kgset/has", method: http.MethodGet, stat: "kgset_has",
		object: "kgset", keyed: true, body: bodyMember, degraded: []string{"kgset_add"},
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			return result{member: s.kgset.Has(t, a.key)}, nil
		}},
	{path: "/map/inc", method: http.MethodPost, stat: "map_inc",
		object: "map", keyed: true, param: &param{name: "d", min: 1, max: fieldCap, optional: true},
		body: bodyOK, ack: ackSum, read: "/map/get",
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			return result{}, growFull(
				func() error { return s.kmap.IncBy(t, a.key, a.n) },
				func() error { return s.kmap.Rehash(t, 2*s.kmap.Buckets(t)) })
		}},
	{path: "/map/max", method: http.MethodPost, stat: "map_max",
		object: "map", keyed: true, param: &param{name: "v", max: fieldCap},
		body: bodyOK, ack: ackMax,
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			return result{}, growFull(
				func() error { return s.kmap.Max(t, a.key, a.n) },
				func() error { return s.kmap.Rehash(t, 2*s.kmap.Buckets(t)) })
		}},
	{path: "/map/get", method: http.MethodGet, stat: "map_get",
		object: "map", keyed: true, body: bodyValueKind, degraded: []string{"map_inc", "map_max"},
		apply: func(s *server, t stronglin.Thread, a args) (result, error) {
			v, kind, err := s.kmap.GetKind(t, a.key)
			return result{value: v, kind: kind.String()}, err
		}},
	{path: "/clock/tick", method: http.MethodPost, stat: "clock_tick", body: bodyOK,
		apply: func(s *server, t stronglin.Thread, _ args) (result, error) {
			if s.clock.TryTick(t) != nil {
				return result{}, errClockSpent
			}
			return result{}, nil
		}},
	{path: "/clock", method: http.MethodGet, stat: "clock_read", body: bodyValue,
		apply: func(s *server, t stronglin.Thread, _ args) (result, error) {
			v, err := s.clock.TryRead(t)
			if err != nil {
				return result{}, errClockSpent
			}
			return result{value: v}, nil
		}},
}

// snapshotOps serves one snapshot engine: POST ?v=V updates the component
// of whichever lane the request leases, GET scans the view. Out-of-bound
// values are refused 400 before any lease — the packed engine would panic
// on them. /snapshot is the -bound-dependent Theorem 2 engine, /msnapshot
// the multi-word k-XADD engine at any lane count.
func snapshotOps(name string, engine func(*server) *stronglin.Snapshot) []*op {
	return []*op{
		{path: "/" + name, method: http.MethodPost, stat: name + "_update",
			param: &param{name: "v", max: valueCap}, body: bodyOK,
			apply: func(s *server, t stronglin.Thread, a args) (result, error) {
				engine(s).Update(t, a.n)
				return result{}, nil
			}},
		{path: "/" + name, method: http.MethodGet, stat: name + "_scan",
			body: bodyView,
			apply: func(s *server, t stronglin.Thread, _ args) (result, error) {
				return result{elems: engine(s).Scan(t)}, nil
			}},
	}
}

// errClockSpent is the logical clock's terminal budget: the Algorithm 1
// reference budget is spent and no further operation exists to serve.
var errClockSpent = errors.New("clock capacity exhausted")

// counterAdd is the counter's one engine step: an increment (n = 1) or a
// migration add.
func counterAdd(s *server, t stronglin.Thread, a args) (result, error) {
	if a.n > 0 {
		s.counter.Add(t, a.n)
	}
	return result{}, nil
}

// opsByPath indexes the table by path, in table order.
var opsByPath = map[string][]*op{}

// methods is every method the table serves; notAllowed[set] is the 405
// reason naming a set of them, bit i standing for methods[i].
var (
	methods    = [...]string{http.MethodGet, http.MethodPost}
	notAllowed = [...]string{1: "GET only", 2: "POST only", 3: "GET or POST only"}
)

// routeKeys is every route key the table routes: the dense objects, then
// one key per keyed partition (kgset.pN, map.pN). The frontend's ownership
// table carries exactly these, the backend's /fence accepts exactly these,
// and each has a fence-floor gauge.
var routeKeys []string

func init() {
	objects = append(objects, snapshotOps("snapshot", func(s *server) *stronglin.Snapshot { return s.snap })...)
	objects = append(objects, snapshotOps("msnapshot", func(s *server) *stronglin.Snapshot { return s.msnap })...)
	routesOf := map[string][]string{}
	for _, d := range objects {
		opsByPath[d.path] = append(opsByPath[d.path], d)
		if p := d.param; p != nil {
			p.missing = fmt.Errorf("missing query parameter %q", p.name)
			p.unbounded = p.outOfRange(math.MaxInt64)
		}
		if d.object == "" {
			continue
		}
		if _, ok := routesOf[d.object]; !ok {
			rs := []string{d.object}
			if d.keyed {
				rs = rs[:0]
				for p := 0; p < keyPartitions; p++ {
					rs = append(rs, fmt.Sprintf("%s.p%d", d.object, p))
				}
			}
			routesOf[d.object] = rs
			routeKeys = append(routeKeys, rs...)
		}
		d.routes = routesOf[d.object]
	}
}

// route is the route key a request of this op carries: the object for a
// dense op, its key's partition for a keyed one.
func (d *op) route(a args) string {
	if d.keyed {
		return d.routes[keyedPartition(a.key)]
	}
	return d.routes[0]
}

// lookupOp resolves a request to its descriptor. A path served under two
// descriptors for one method (GET /gset) picks the first whose required
// parameter is present, else the last. A known path without the method
// answers 405 naming the methods it has; an unknown path 404. The filter
// restricts the table to the ops a tier serves.
func lookupOp(w *respWriter, r *request, serves func(*op) bool) *op {
	var pick *op
	allowed := 0 // the method set served on the path
	for _, d := range opsByPath[r.path] {
		if !serves(d) {
			continue
		}
		allowed |= 1 << slices.Index(methods[:], d.method)
		if d.method == r.method && (pick == nil || !pick.satisfied(r.query)) {
			pick = d
		}
	}
	switch {
	case pick != nil:
		return pick
	case allowed != 0:
		writeErr(w, http.StatusMethodNotAllowed, notAllowed[allowed], false, 0)
	default:
		notFound(w)
	}
	return nil
}

func (d *op) satisfied(q query) bool {
	return d.param == nil || d.param.optional || q.Get(d.param.name) != ""
}

// notFound is the uniform 404 of an unknown path, on both tiers.
func notFound(w *respWriter) {
	writeErr(w, http.StatusNotFound, "unknown path", false, 0)
}

// parse extracts the op's arguments: k for a keyed op, then its integer
// parameter. s nil (the frontend, which does not know a backend's value
// domain) skips the upper bound.
func (d *op) parse(q query, s *server) (args, error) {
	a := args{n: 1}
	if d.keyed {
		k, err := queryKey(q)
		if err != nil {
			return a, err
		}
		a.key = k
	}
	p := d.param
	if p == nil {
		return a, nil
	}
	raw := q.Get(p.name)
	if raw == "" {
		if p.optional {
			return a, nil
		}
		return a, p.missing
	}
	hi := int64(math.MaxInt64)
	if s != nil {
		hi = p.max(s)
	}
	if v, ok := atoi64(raw); ok && v >= p.min && v <= hi {
		a.n = v
		return a, nil
	}
	if s == nil {
		return a, p.unbounded
	}
	return a, s.outOfRange[p]
}

// atoi64 is strconv.ParseInt(s, 10, 64) without its error value, which
// allocates: an optional sign, then decimal digits, within int64.
func atoi64(s string) (int64, bool) {
	neg := strings.HasPrefix(s, "-")
	if neg || strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	var n int64 // accumulated negatively, so MinInt64 fits
	for i := range len(s) {
		d := int64(s[i]) - '0'
		if d < 0 || d > 9 || n < (math.MinInt64+d)/10 {
			return 0, false
		}
		n = n*10 - d
	}
	if s == "" || !neg && n == math.MinInt64 {
		return 0, false
	}
	if neg {
		return n, true
	}
	return -n, true
}

// writeURI is the request URI of a write of a through d: the frontend's
// seeding replays ledger entries with it.
func (d *op) writeURI(a args) string {
	var q []string
	if d.keyed {
		q = append(q, "k="+neturl.QueryEscape(a.key))
	}
	if d.param != nil {
		q = append(q, d.param.name+"="+strconv.FormatInt(a.n, 10))
	}
	if len(q) == 0 {
		return d.path
	}
	return d.path + "?" + strings.Join(q, "&")
}

// writeBody answers 200 with the op's success body, byte for byte what
// encoding/json writes for the same document (keys sorted, a nil list as
// null, a trailing newline).
func writeBody(w *respWriter, shape bodyShape, res result) {
	w.ctype = "application/json"
	b := w.body
	switch shape {
	case bodyOK:
		b = append(b, `{"ok":true}`...)
	case bodyValue:
		b = append(strconv.AppendInt(append(b, `{"value":`...), res.value, 10), '}')
	case bodyValueKind:
		// kind is one of the engine's fixed kind names: no escaping needed.
		b = append(append(append(b, `{"kind":"`...), res.kind...), `","value":`...)
		b = append(strconv.AppendInt(b, res.value, 10), '}')
	case bodyMember:
		b = append(strconv.AppendBool(append(b, `{"member":`...), res.member), '}')
	case bodyElems:
		b = append(appendInts(append(b, `{"elems":`...), res.elems), '}')
	case bodyView:
		b = append(appendInts(append(b, `{"view":`...), res.elems), '}')
	}
	w.body = append(b, '\n')
}

// appendInts appends xs as a JSON array, or null when nil.
func appendInts(b []byte, xs []int64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}
