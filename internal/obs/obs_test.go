package obs

import (
	"bufio"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	var g Gauge
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(5)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var sm *SnapMetrics
	_ = sm // struct pointers are only dereferenced by callers after nil checks
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	// -5 clamps to 0, so sum = 0+1+2+3+4+7+8+1023+1024+0.
	if got, want := h.Sum(), int64(2072); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	// Bucket occupancy: b0={0,0}, b1={1}, b2={2,3}, b3={4,7}, b4={8}, b10={1023}, b11={1024}.
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for b := range h.buckets {
		if got := h.buckets[b].Load(); got != wantBuckets[b] {
			t.Fatalf("bucket %d = %d, want %d", b, got, wantBuckets[b])
		}
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		b      int
		lo, hi int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{10, 512, 1023},
		{63, 1 << 62, 1<<63 - 1},
		{64, 1 << 62, math.MaxInt64},
	}
	for _, c := range cases {
		lo, hi := bucketBounds(c.b)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("bucketBounds(%d) = (%d, %d), want (%d, %d)", c.b, lo, hi, c.lo, c.hi)
		}
	}
}

// TestHistogramConcurrent is the -race target for the lock-free histogram:
// concurrent observers, quantile readers, and a Prometheus renderer must be
// data-race-free, and the final totals must be exact.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_test_ns", "concurrency test")
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	// Concurrent readers: full text renders while observing.
	var rd sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestRegistryNamesAndDuplicates(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a")
	r.Gauge("b_value", "b")
	r.Histogram("c_ns", "c")
	r.CounterFunc("d_total", "d", func() int64 { return 1 })
	r.GaugeFunc("e_value", "e", func() int64 { return 2 })
	want := []string{"a_total", "b_value", "c_ns", "d_total", "e_value"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate registration must panic")
			}
		}()
		r.Counter("a_total", "dup")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid metric name must panic")
			}
		}()
		r.Counter("9bad name", "bad")
	}()
}

// TestWritePrometheusFormat parses the rendered text line by line against the
// exposition-format grammar: every non-comment line is `name[{labels}] value`,
// every family has HELP and TYPE comments, histogram buckets are cumulative
// and end with +Inf, _sum, _count.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req_total", "requests")
	c.Add(42)
	g := r.Gauge("depth_value", "depth watermark")
	g.Set(17)
	h := r.Histogram("lat_ns", "latency")
	for _, v := range []int64{1, 5, 5, 900} {
		h.Observe(v)
	}
	r.GaugeFunc("derived_value", "scrape-derived", func() int64 { return 99 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	samples := map[string]string{}
	helps, types := map[string]bool{}, map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helps[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typ := f[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("bad TYPE %q in %q", typ, line)
			}
			types[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// Sample line: name-with-optional-labels, space, integer value.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		var n int64
		if _, err := fmt.Sscanf(val, "%d", &n); err != nil {
			t.Fatalf("non-integer value in %q: %v", line, err)
		}
		samples[key] = val
	}
	for _, name := range []string{"req_total", "depth_value", "lat_ns", "derived_value"} {
		if !helps[name] || !types[name] {
			t.Fatalf("family %q missing HELP or TYPE in:\n%s", name, text)
		}
	}
	if samples["req_total"] != "42" || samples["depth_value"] != "17" || samples["derived_value"] != "99" {
		t.Fatalf("scalar samples wrong: %v", samples)
	}
	// Histogram: observations 1,5,5,900 → buckets b1(le=1)=1, b3(le=7)=3
	// (cumulative), b10(le=1023)=4, +Inf=4, sum=911, count=4.
	if samples[`lat_ns_bucket{le="1"}`] != "1" ||
		samples[`lat_ns_bucket{le="7"}`] != "3" ||
		samples[`lat_ns_bucket{le="1023"}`] != "4" ||
		samples[`lat_ns_bucket{le="+Inf"}`] != "4" ||
		samples["lat_ns_sum"] != "911" ||
		samples["lat_ns_count"] != "4" {
		t.Fatalf("histogram render wrong:\n%s", text)
	}
}

func TestSortedNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "")
	r.Counter("aa_total", "")
	got := r.SortedNames()
	if got[0] != "aa_total" || got[1] != "zz_total" {
		t.Fatalf("SortedNames() = %v", got)
	}
}
