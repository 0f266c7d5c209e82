// Package obs is the protocol-level telemetry substrate: zero-allocation
// counters, gauges and log₂-bucketed histograms with a registry that serves
// the Prometheus text exposition format.
//
// The package exists because the protocol layers (internal/core's multi-word
// snapshot, internal/shard's epoch-validated combining reads, internal/pool's
// lane leases) have health signals — retry pressure, helping traffic,
// lifetime-budget consumption — that are invisible at runtime, and the
// lifetime budgets in particular (the epoch register's 2⁴⁸ announce capacity,
// the mod-2¹⁶ sequence wrap, the Algorithm 1 reference budgets) must be
// watched as watermarks long before they exhaust.
//
// # Cost model
//
// Every instrument is designed so the engines can afford it on hot paths:
//
//   - An enabled Counter/Gauge/Histogram op is ONE predictable atomic RMW
//     (plus a second for a histogram's sum) on a cache-line-padded word —
//     never a lock, never an allocation.
//   - A nil instrument is a no-op: every method is nil-receiver-safe, so
//     optional instrumentation costs one predicted branch when disabled and
//     disappears from profiles.
//   - The engines additionally keep their own telemetry on SLOW paths only
//     (a failed validation round, a pressure raise, a deposit): the
//     uncontended fast path of an instrumented engine carries zero added
//     atomic ops, and the registry derives watermark gauges at SCRAPE time
//     (reading a word's sequence field, an epoch's announce count) instead
//     of taxing every operation.
//
// # Registry
//
// A Registry owns named metric families and renders them in the Prometheus
// text format (WritePrometheus). Instruments can be allocated by the registry
// (Counter/Gauge/Histogram) or supplied as read-at-scrape closures
// (CounterFunc/GaugeFunc) over telemetry an engine already keeps — the
// closures are how the always-on engine counters and the lifetime watermarks
// are exported without double counting on the hot path. Default is the
// package-level registry for processes that serve a single stack; servers
// that build several stacks (tests, the attack generator) allocate their own.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// HelpStats is the always-on helping/retry telemetry block every combining
// read engine keeps (the multi-word snapshot's scans, the sharded objects'
// epoch-validated reads). All counts are slow-path events: the uncontended
// fast path touches none of them.
type HelpStats struct {
	// Deposits counts helper views deposited by writers/updaters that saw
	// raised pressure after announcing.
	Deposits int64 `json:"deposits"`
	// Adopts counts reads/scans that returned a helper-deposited view.
	Adopts int64 `json:"adopts"`
	// AdoptMisses counts adoption attempts whose closing witness failed (a
	// deposit was present but an announce moved past it): each miss is one
	// turn of the documented 2-step slot-read/witness residue window.
	AdoptMisses int64 `json:"adopt_misses"`
	// Retries counts failed validation rounds across all reads/scans — the
	// retry pressure the helping protocol exists to bound.
	Retries int64 `json:"retries"`
	// Raises counts pressure-raise episodes (reads/scans that exhausted
	// their retry budget and solicited help).
	Raises int64 `json:"raises"`
}

// cacheLine is the assumed cache-line size for padding.
const cacheLine = 64

// Counter is a monotonically-increasing atomic counter padded to its own
// cache line, so arrays and sibling fields of counters never false-share.
// The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (d must be non-negative for the value to remain monotone).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value with a watermark helper. The zero
// value is ready; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a log₂ histogram: bucket 0 holds the
// value 0 and bucket b (1..64) holds values v with bits.Len64(v) == b, i.e.
// v in [2^(b-1), 2^b-1]. 64-bit values always land in a bucket.
const histBuckets = 65

// Histogram is a lock-free log₂-bucketed occurrence histogram for
// non-negative values (latencies in nanoseconds, retry-round counts, batch
// sizes). Observe is two atomic adds and no allocation; buckets are exact
// counts. The zero value is ready; a nil *Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records v (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// bucketBounds returns the value range [lo, hi] of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	if b >= 64 {
		return int64(1) << 62, math.MaxInt64 // bucket 64's true range overflows; clamp
	}
	return int64(1) << (b - 1), int64(1)<<b - 1
}

// Kind names a metric family's Prometheus type.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// family is one registered metric: a name, help text, and either a scalar
// read function or a histogram.
type family struct {
	name, help string
	kind       Kind
	read       func() int64 // scalar kinds
	hist       *Histogram   // KindHistogram
}

// Registry owns named metric families and serves them in the Prometheus text
// exposition format. Registration takes a lock; reading instruments never
// does. Names must be unique per registry (duplicate registration panics:
// it is a wiring bug, not a runtime condition).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the package-level registry, for processes that serve one stack.
var Default = NewRegistry()

func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// validName reports whether name matches the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter allocates and registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, kind: KindCounter, read: c.Load})
	return c
}

// Gauge allocates and registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, kind: KindGauge, read: g.Load})
	return g
}

// Histogram allocates and registers a log₂ histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(&family{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// CounterFunc registers a counter whose value is read at scrape time — the
// bridge to telemetry an engine already keeps (HelpStats fields, op counts),
// exported without a second hot-path increment.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, kind: KindCounter, read: fn})
}

// GaugeFunc registers a gauge read at scrape time — how the lifetime
// watermarks (epoch announce counts, sequence fields, Algorithm 1 budget
// consumption) are derived from the registers themselves instead of taxing
// every operation.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, kind: KindGauge, read: fn})
}

// Names returns the registered family names in registration order — the
// golden list the /metrics endpoint tests assert against.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE comments, then the samples.
// Histograms render cumulative le-labelled buckets (upper bounds 2^b−1) plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		if f.kind != KindHistogram {
			if _, err := fmt.Fprintf(w, "%s %d\n", f.name, f.read()); err != nil {
				return err
			}
			continue
		}
		if err := writeHistogram(w, f.name, f.hist); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	var counts [histBuckets]int64
	top := -1
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	var cum int64
	for b := 0; b <= top; b++ {
		cum += counts[b]
		_, hi := bucketBounds(b)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.sum.Load(), name, cum)
	return err
}

// SnapMetrics is the optional scrape-layer instrumentation of a multi-word
// snapshot (core.WithSnapshotObs). All fields are nil-safe: an unset field
// is a no-op, so partial wiring is fine and the disabled cost is one
// predicted branch on the slow path only.
type SnapMetrics struct {
	// ScanRounds records the failed validation rounds of each CONTENDED scan
	// (scans that validate their first round — the uncontended fast path —
	// are not observed, so the histogram isolates retry pressure).
	ScanRounds *Histogram
	// CacheHits is never counted.
	//
	// Deprecated: the view cache is deleted; benchmark/replay.go is the only
	// writer, and the field goes with that write.
	CacheHits *Counter
}

// ShardMetrics is the optional scrape-layer instrumentation of a sharded
// object's combining reads (shard.WithObs). Fields are nil-safe like
// SnapMetrics.
type ShardMetrics struct {
	// ReadRounds records the failed validation rounds of each contended
	// combining read (uncontended reads are not observed).
	ReadRounds *Histogram
	// CacheHits is never counted.
	//
	// Deprecated: the combine cache is deleted; benchmark/replay.go is the
	// only writer, and the field goes with that write.
	CacheHits *Counter
}

// SortedNames is Names sorted — convenience for deterministic test output.
func (r *Registry) SortedNames() []string {
	names := r.Names()
	sort.Strings(names)
	return names
}
