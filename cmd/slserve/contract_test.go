package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The wire contract: what the benchmark (benchmark/, and so scripts/ab.sh)
// reads from slserve. Success statuses and body keys per endpoint, the
// /stats key sets of both tiers, and the /metrics family names are pinned
// here, so a refactor of the serving code cannot rename any of them.

// bodyKeys decodes a JSON object body and returns its sorted keys.
func bodyKeys(t *testing.T, rec *httptest.ResponseRecorder) []string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("body %q is not a JSON object: %v", rec.Body.String(), err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// flatKeys lists every key path of a JSON object, descending into nested
// objects (not arrays): {"a":{"b":1}} gives a and a.b.
func flatKeys(prefix string, m map[string]any, out *[]string) {
	for k, v := range m {
		*out = append(*out, prefix+k)
		if sub, ok := v.(map[string]any); ok {
			flatKeys(prefix+k+".", sub, out)
		}
	}
}

func statsKeys(t *testing.T, h string) []string {
	t.Helper()
	rec := feReq(t, h, http.MethodGet, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d %s", rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/stats body: %v", err)
	}
	var keys []string
	flatKeys("", m, &keys)
	sort.Strings(keys)
	return keys
}

// metricFamilies lists the family names of a Prometheus text document.
func metricFamilies(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, strings.Fields(rest)[0])
		}
	}
	sort.Strings(out)
	return out
}

type contractRow struct {
	method, target string
	keys           string // comma-separated sorted JSON body keys
}

func checkRows(t *testing.T, h string, rows []contractRow) {
	t.Helper()
	for _, r := range rows {
		rec := feReq(t, h, r.method, r.target)
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: %d %s, want 200", r.method, r.target, rec.Code, rec.Body.String())
			continue
		}
		if got := strings.Join(bodyKeys(t, rec), ","); got != r.keys {
			t.Errorf("%s %s: body keys %s, want %s", r.method, r.target, got, r.keys)
		}
	}
}

func wantSubset(t *testing.T, what string, got []string, want []string) {
	t.Helper()
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("%s: missing %s", what, w)
		}
	}
}

// routedObjects is the ownership table's key list: the dense singletons and
// one key per keyed partition.
var routedObjects = []string{
	"counter", "gset", "kgset.p0", "kgset.p1", "kgset.p2", "kgset.p3",
	"map.p0", "map.p1", "map.p2", "map.p3", "maxreg",
}

func TestWireContractBackend(t *testing.T) {
	srv := newServer(4, 2, 0)
	h := startWire(t, srv.wire()).URL
	checkRows(t, h, []contractRow{
		{http.MethodPost, "/counter/inc", "ok"},
		{http.MethodPost, "/counter/add?d=2", "ok"},
		{http.MethodGet, "/counter", "value"},
		{http.MethodPost, "/maxreg?v=3", "ok"},
		{http.MethodGet, "/maxreg", "value"},
		{http.MethodPost, "/gset?x=1", "ok"},
		{http.MethodGet, "/gset?x=1", "member"},
		{http.MethodGet, "/gset", "elems"},
		{http.MethodPost, "/snapshot?v=1", "ok"},
		{http.MethodGet, "/snapshot", "view"},
		{http.MethodPost, "/msnapshot?v=1", "ok"},
		{http.MethodGet, "/msnapshot", "view"},
		{http.MethodPost, "/clock/tick", "ok"},
		{http.MethodGet, "/clock", "value"},
		{http.MethodPost, "/kgset/add?k=a", "ok"},
		{http.MethodGet, "/kgset/has?k=a", "member"},
		{http.MethodPost, "/map/inc?k=a&d=2", "ok"},
		{http.MethodPost, "/map/max?k=b&v=2", "ok"},
		{http.MethodGet, "/map/get?k=a", "kind,value"},
		{http.MethodPost, "/fence?obj=counter&gen=0", "floor,ok"},
		{http.MethodPost, "/fence?obj=map.p3&gen=0", "floor,ok"},
	})
	if rec := feReq(t, h, http.MethodGet, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	got := statsKeys(t, h)
	want := []string{
		"lanes", "shards", "max_value", "counter_packed", "maxreg_packed", "gset_packed",
		"snapshot_packed", "snapshot_engine", "snapshot_words", "msnapshot_engine", "msnapshot_words",
		"clock_packed", "clock_engine", "clock_words", "clock_capacity", "clock_used",
		"watermark_state", "rollovers", "rollovers_refused", "counter_epoch_generation",
		"maxreg_epoch_generation", "gset_epoch_generation", "msnapshot_rebase",
		"kgset", "kmap", "counter_fence_floor", "maxreg_fence_floor", "gset_fence_floor",
		"kgset_fence_floors", "map_fence_floors", "fence_rejects", "lanes_in_use", "lease_acquires",
		"counter_inc", "counter_read", "maxreg_write", "maxreg_read", "gset_add", "gset_has",
		"gset_elems", "snapshot_update", "snapshot_scan", "msnapshot_update", "msnapshot_scan",
		"clock_tick", "clock_read", "kgset_add", "kgset_has", "map_inc", "map_max", "map_get",
	}
	for _, o := range []string{"counter", "maxreg", "gset", "snapshot", "msnapshot"} {
		for _, f := range []string{"deposits", "adopts", "adopt_misses", "retries", "raises"} {
			want = append(want, o+"_help", o+"_help."+f)
		}
	}
	for _, o := range []string{"kgset", "kmap"} {
		for _, f := range []string{"buckets", "slots", "keys", "words_per_bucket", "packed", "generation", "rehashes", "read_retries", "epoch_announces"} {
			want = append(want, o+"."+f)
		}
	}
	var rebase map[string]any
	b, _ := json.Marshal(srv.msnap.RebaseStats())
	json.Unmarshal(b, &rebase)
	for f := range rebase {
		want = append(want, "msnapshot_rebase."+f)
	}
	slices.Sort(want)
	want = slices.Compact(want)
	if !slices.Equal(got, want) {
		t.Errorf("backend /stats keys\n got %v\nwant %v", got, want)
	}

	fams := metricFamilies(feReq(t, h, http.MethodGet, "/metrics").Body.String())
	var wantFams []string
	for _, e := range []string{"counter_inc", "counter_add", "counter", "maxreg", "gset", "kgset_add", "kgset_has",
		"map_inc", "map_max", "map_get", "snapshot", "msnapshot", "clock_tick", "clock", "stats", "metrics"} {
		wantFams = append(wantFams, "slserve_endpoint_"+e+"_duration_ns")
	}
	for _, o := range []string{"counter", "maxreg", "gset", "kgset_p0", "kgset_p1", "kgset_p2", "kgset_p3",
		"map_p0", "map_p1", "map_p2", "map_p3"} {
		wantFams = append(wantFams, "slserve_"+o+"_fence_floor")
	}
	wantFams = append(wantFams,
		"slserve_requests_total", "slserve_request_errors_total", "slserve_request_duration_ns",
		"slserve_fence_rejects_total", "slserve_lease_waits_total", "slserve_lease_steals_total",
		"slserve_counter_retries_total", "slserve_maxreg_retries_total", "slserve_gset_retries_total",
		"slserve_snapshot_retries_total", "slserve_msnapshot_retries_total",
		"slserve_map_rehashes_total", "slserve_kgset_rehashes_total",
		"slserve_map_read_retries_total", "slserve_kgset_read_retries_total",
		"slserve_map_buckets", "slserve_kgset_buckets", "slserve_rollovers_total")
	wantSubset(t, "backend /metrics", fams, wantFams)
	for _, f := range fams {
		if strings.Contains(f, "_cache_") {
			t.Errorf("backend /metrics serves %s, but the served engines carry no caches", f)
		}
	}
}

func TestWireContractFrontend(t *testing.T) {
	ts := startWire(t, newServer(4, 2, 0).wire())
	defer ts.Close()
	f := newTestFrontend(t, []string{ts.URL}, fastHealth())
	ctx := context.Background()
	f.health.Sweep(ctx)
	f.reconcileOnce(ctx)
	h := startWire(t, f.wire()).URL
	checkRows(t, h, []contractRow{
		{http.MethodPost, "/counter/inc", "ok"},
		{http.MethodGet, "/counter", "value"},
		{http.MethodPost, "/maxreg?v=3", "ok"},
		{http.MethodGet, "/maxreg", "value"},
		{http.MethodPost, "/gset?x=1", "ok"},
		{http.MethodGet, "/gset?x=1", "member"},
		{http.MethodGet, "/gset", "elems"},
		{http.MethodPost, "/kgset/add?k=a", "ok"},
		{http.MethodGet, "/kgset/has?k=a", "member"},
		{http.MethodPost, "/map/inc?k=a&d=2", "ok"},
		{http.MethodPost, "/map/max?k=b&v=2", "ok"},
		{http.MethodGet, "/map/get?k=a", "kind,value"},
	})
	if rec := feReq(t, h, http.MethodGet, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	want := []string{
		"backends", "epoch", "objects", "handoffs", "handoff_failures", "retries",
		"degraded_reads", "reroutes", "raced", "steals", "fences", "counter_ledger", "maxreg_ledger",
		"gset_ledger_size", "kgset_ledger_keys", "kmap_ledger_keys",
	}
	for _, o := range routedObjects {
		want = append(want, "objects."+o, "objects."+o+".owner", "objects."+o+".gen", "objects."+o+".settled")
	}
	slices.Sort(want)
	if got := statsKeys(t, h); !slices.Equal(got, want) {
		t.Errorf("frontend /stats keys\n got %v\nwant %v", got, want)
	}

	fams := metricFamilies(feReq(t, h, http.MethodGet, "/metrics").Body.String())
	wantFams := []string{
		"cluster_backend_0_state", "cluster_backoff_ns", "cluster_degraded_reads_total", "cluster_epoch",
		"cluster_fences_total", "cluster_handoff_duration_ns", "cluster_handoff_failures_total",
		"cluster_handoffs_total", "cluster_raced_total", "cluster_reroutes_total",
		"cluster_retries_total", "cluster_steals_total", "slfront_backend_dials_total",
		"slfront_counter_inc_ledger_entries", "slfront_gset_add_ledger_entries",
		"slfront_kgset_add_ledger_entries", "slfront_map_inc_ledger_entries",
		"slfront_map_max_ledger_entries", "slfront_maxreg_write_ledger_entries",
		"slfront_request_duration_ns", "slfront_request_errors_total", "slfront_requests_total",
	}
	if !slices.Equal(fams, wantFams) {
		t.Errorf("frontend /metrics families\n got %v\nwant %v", fams, wantFams)
	}
}
