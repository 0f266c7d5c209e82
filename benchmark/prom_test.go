package main

import (
	"strings"
	"testing"
)

// goldenBefore and goldenAfter are two scrapes in the exposition format
// slserve's internal/obs registry writes: HELP/TYPE comments, counters and
// gauges, and log2 histograms with le-labelled cumulative buckets.
const goldenBefore = `# HELP slserve_requests_total HTTP requests served (all endpoints)
# TYPE slserve_requests_total counter
slserve_requests_total 1000
# HELP slserve_request_duration_ns request handling latency in nanoseconds
# TYPE slserve_request_duration_ns histogram
slserve_request_duration_ns_bucket{le="4095"} 10
slserve_request_duration_ns_bucket{le="8191"} 900
slserve_request_duration_ns_bucket{le="+Inf"} 1000
slserve_request_duration_ns_sum 7000000
slserve_request_duration_ns_count 1000
# HELP slserve_map_buckets monotone map hash bucket count
# TYPE slserve_map_buckets gauge
slserve_map_buckets 8
`

const goldenAfter = `# HELP slserve_requests_total HTTP requests served (all endpoints)
# TYPE slserve_requests_total counter
slserve_requests_total 3000
# HELP slserve_request_duration_ns request handling latency in nanoseconds
# TYPE slserve_request_duration_ns histogram
slserve_request_duration_ns_bucket{le="4095"} 30
slserve_request_duration_ns_bucket{le="8191"} 2800
slserve_request_duration_ns_bucket{le="+Inf"} 3000
slserve_request_duration_ns_sum 17000000
slserve_request_duration_ns_count 3000
# HELP slserve_map_buckets monotone map hash bucket count
# TYPE slserve_map_buckets gauge
slserve_map_buckets 16
slserve_clock_capacity 281474976710655
`

func TestParsePromDeltas(t *testing.T) {
	b, err := parseProm(strings.NewReader(goldenBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(goldenAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(b, a, "slserve_requests_total"); got != 2000 {
		t.Errorf("requests delta = %v, want 2000", got)
	}
	if got := a[`slserve_request_duration_ns_bucket{le="+Inf"}`]; got != 3000 {
		t.Errorf("labelled bucket = %v, want 3000", got)
	}
	mean, n := histMean(b, a, "slserve_request_duration_ns")
	if n != 2000 || mean != 5000 {
		t.Errorf("histMean = %v over %v, want 5000 over 2000", mean, n)
	}
	if got := a["slserve_map_buckets"]; got != 16 {
		t.Errorf("gauge = %v, want 16", got)
	}
	if got := delta(b, a, "slserve_clock_capacity"); got != 281474976710655 {
		t.Errorf("series missing before reads as 0: delta %v", got)
	}
	if mean, n := histMean(b, a, "absent"); mean != 0 || n != 0 {
		t.Errorf("absent histogram = %v over %v, want 0 over 0", mean, n)
	}
	sum := addSamples(a, a)
	if sum["slserve_requests_total"] != 6000 {
		t.Errorf("addSamples = %v, want 6000", sum["slserve_requests_total"])
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"slserve_requests_total\n",
		"slserve_requests_total abc\n",
		`slserve_x{le="1" 3` + "\n",
		"slserve_requests_total 1 2 3\n",
	} {
		if _, err := parseProm(strings.NewReader(text)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", text)
		}
	}
}
