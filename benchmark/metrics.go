package main

import (
	"fmt"
	"slices"
	"strings"
)

// metricDef is one reported metric. Bounds and directions live in
// BENCHMARK.json; compare reads them from there.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the service sees, measured untraced.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "rps"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"rss_mb", "MB"},
}

// layerMetrics are the traced run's per-layer metrics. A layer the workload
// never reaches reports 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"loadgen.send_lag_p50_ms", "ms"},
		{"loadgen.send_lag_p99_ms", "ms"},
		{"loadgen.cpu_ms_per_kreq", "ms/kreq"},
		{"http.outside_handler_us", "us"},
		{"slserve.handler_us", "us"},
	}
	for _, e := range endpoints {
		defs = append(defs, metricDef{"slserve.handler_us." + e, "us"})
	}
	defs = append(defs, []metricDef{
		{"slserve.maxreg_handler_share", "frac"},
		{"slserve.cpu_ms_per_kreq", "ms/kreq"},
		{"slserve.coalesce_absorbed_frac", "frac"},
		{"slserve.coalesce_batch_mean", "count"},
		{"pool.with_ns", "ns"},
		{"pool.lease_waits_per_kreq", "1/kreq"},
		{"pool.lease_steals_per_kreq", "1/kreq"},
		{"shard.counter_inc_ns", "ns"},
		{"shard.counter_read_ns", "ns"},
		{"shard.maxreg_write_ns", "ns"},
		{"shard.maxreg_read_ns", "ns"},
		{"shard.gset_add_ns", "ns"},
		{"shard.gset_has_ns", "ns"},
		{"shard.read_retries_per_read", "1/read"},
		{"shard.cache_hit_frac", "frac"},
		{"core.snapshot_update_ns", "ns"},
		{"core.snapshot_scan_ns", "ns"},
		{"core.msnapshot_update_ns", "ns"},
		{"core.msnapshot_scan_ns", "ns"},
		{"core.msnapshot_cache_hit_frac", "frac"},
		{"core.scan_retries_per_scan", "1/scan"},
		{"keyed.map_inc_ns", "ns"},
		{"keyed.map_max_ns", "ns"},
		{"keyed.map_get_ns", "ns"},
		{"keyed.kgset_add_ns", "ns"},
		{"keyed.kgset_has_ns", "ns"},
		{"keyed.rehash_ms", "ms"},
		{"keyed.rehashes", "count"},
		{"keyed.read_retries_per_read", "1/read"},
		{"keyed.buckets", "count"},
		{"cluster.route_ns", "ns"},
		{"cluster.frontend_handler_us", "us"},
		{"cluster.proxy_hop_us", "us"},
		{"cluster.retries_per_kreq", "1/kreq"},
		{"cluster.reroutes", "count"},
		{"cluster.handoffs", "count"},
		{"cluster.failover_gap_ms", "ms"},
		{"cluster.lost_acks", "count"},
		{"migrate.rollovers", "count"},
		{"capacity_rps", "rps"},
	}...)
	for _, s := range selfTimedSpans {
		defs = append(defs, metricDef{"span." + spanNames[s] + ".self_us", "us"})
	}
	return append(defs,
		metricDef{"trace.throughput_ratio", "frac"},
		metricDef{"trace.latency_p50_ratio", "frac"},
		metricDef{"host.loopback_rtt_us", "us"},
	)
}()

// metricValue is one metric of one run.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Raw is the value before host normalization (end-to-end metrics).
	Raw     float64 `json:"raw,omitempty"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int64   `json:"samples"`
	// Reps holds the per-rep (or per-setup) values as measured.
	Reps []float64 `json:"reps,omitempty"`
	Note string    `json:"note,omitempty"`
}

// coalescers are slserve's coalescing funnels (slserve_coalesce_<name>_*).
var coalescers = []string{
	"counter_inc", "counter_read", "maxreg_read", "gset_add", "gset_elems",
	"snapshot_scan", "msnapshot_scan", "kgset_add", "map_inc", "map_max",
}

// layerInputs is everything the per-layer metrics are computed from: the
// client side of the measured window (the untraced and the traced rep), the
// server scrapes around it, CPU times, and the extra phases.
type layerInputs struct {
	w                  workload
	untraced, traced   []*repStats // alternating one-second reps
	backB, backA       promSample  // backends' scrapes, summed, before/after
	frontB, frontA     promSample  // frontend scrapes (routed only)
	backEnd            promSample  // backends' scrapes at the end of the run
	frontEnd           promSample  // frontend scrape at the end of the run
	selfCPU, serverCPU float64     // ms over the window
	replay             map[string]float64
	capacity           float64
	failoverGapMS      float64
	lostAcks           float64
	hostRTT            float64 // us, the host probe around the reps
	tr                 *tracer
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes every per-layer metric.
func layerValues(in layerInputs) map[string]float64 {
	v := map[string]float64{}
	u, t := mergeReps(in.untraced), mergeReps(in.traced)
	ok := float64(u.ok + t.ok)
	kreq := ok / 1000
	var kinds [numOps]float64
	for k := range kinds {
		kinds[k] = float64(u.kinds[k] + t.kinds[k])
	}
	lag := append(slices.Clone(u.lag), t.lag...)
	slices.Sort(lag)
	if in.w.rate > 0 {
		v["loadgen.send_lag_p50_ms"] = float64(percentile(lag, 50)) / 1e6
		v["loadgen.send_lag_p99_ms"] = float64(percentile(lag, 99)) / 1e6
	} else {
		// A closed loop sends the moment its previous answer is checked:
		// no schedule, so no lag.
		v["loadgen.send_lag_p50_ms"], v["loadgen.send_lag_p99_ms"] = 0, 0
	}
	v["loadgen.cpu_ms_per_kreq"] = safeDiv(in.selfCPU, kreq)

	b, a := in.backB, in.backA
	handlerNS, handled := histMean(b, a, "slserve_request_duration_ns")
	v["slserve.handler_us"] = handlerNS / 1e3
	var totalNS, maxregNS float64
	for _, e := range endpoints {
		mean, n := histMean(b, a, "slserve_endpoint_"+e+"_duration_ns")
		v["slserve.handler_us."+e] = mean / 1e3
		totalNS += mean * n
		if e == "maxreg" {
			maxregNS = mean * n
		}
	}
	v["slserve.maxreg_handler_share"] = safeDiv(maxregNS, totalNS)
	v["slserve.cpu_ms_per_kreq"] = safeDiv(in.serverCPU, kreq)
	var absorbed, batchSum, batches float64
	for _, c := range coalescers {
		absorbed += delta(b, a, "slserve_coalesce_"+c+"_absorbed_total")
		batchSum += delta(b, a, "slserve_coalesce_"+c+"_batch_size_sum")
		batches += delta(b, a, "slserve_coalesce_"+c+"_batch_size_count")
	}
	v["slserve.coalesce_absorbed_frac"] = safeDiv(absorbed, handled)
	v["slserve.coalesce_batch_mean"] = safeDiv(batchSum, batches)

	clientRT := safeDiv(float64(u.rtSum+t.rtSum), ok)
	entryNS := handlerNS
	if in.w.routed {
		frontNS, _ := histMean(in.frontB, in.frontA, "slfront_request_duration_ns")
		entryNS = frontNS
		v["cluster.frontend_handler_us"] = frontNS / 1e3
		v["cluster.proxy_hop_us"] = (frontNS - handlerNS) / 1e3
		v["cluster.retries_per_kreq"] = safeDiv(delta(in.frontB, in.frontA, "cluster_retries_total"), kreq)
		v["cluster.reroutes"] = delta(in.frontB, in.frontEnd, "cluster_reroutes_total")
		// The failover phase starts right after the traced rep's scrape.
		v["cluster.handoffs"] = delta(in.frontA, in.frontEnd, "cluster_handoffs_total")
		v["cluster.failover_gap_ms"] = in.failoverGapMS
		v["cluster.lost_acks"] = in.lostAcks
	} else {
		for _, n := range []string{"cluster.frontend_handler_us", "cluster.proxy_hop_us", "cluster.retries_per_kreq",
			"cluster.reroutes", "cluster.handoffs", "cluster.failover_gap_ms", "cluster.lost_acks"} {
			v[n] = 0
		}
	}
	v["http.outside_handler_us"] = (clientRT - entryNS) / 1e3

	v["pool.lease_waits_per_kreq"] = safeDiv(delta(b, a, "slserve_lease_waits_total"), handled/1000)
	v["pool.lease_steals_per_kreq"] = safeDiv(delta(b, a, "slserve_lease_steals_total"), handled/1000)

	shardReads := kinds[opCounterRead] + kinds[opMaxregRead] + kinds[opGSetHas]
	v["shard.read_retries_per_read"] = safeDiv(deltaSum(b, a,
		"slserve_counter_retries_total", "slserve_maxreg_retries_total", "slserve_gset_retries_total"), shardReads)
	hits := deltaSum(b, a, "slserve_counter_cache_hits_total", "slserve_maxreg_cache_hits_total", "slserve_gset_cache_hits_total")
	misses := deltaSum(b, a, "slserve_counter_cache_misses_total", "slserve_maxreg_cache_misses_total", "slserve_gset_cache_misses_total")
	v["shard.cache_hit_frac"] = safeDiv(hits, hits+misses)
	mh := delta(b, a, "slserve_msnapshot_cache_hits_total")
	v["core.msnapshot_cache_hit_frac"] = safeDiv(mh, mh+delta(b, a, "slserve_msnapshot_cache_misses_total"))
	v["core.scan_retries_per_scan"] = safeDiv(deltaSum(b, a, "slserve_snapshot_retries_total", "slserve_msnapshot_retries_total"),
		kinds[opSnapScan]+kinds[opMsnapScan])

	v["keyed.rehashes"] = deltaSum(b, a, "slserve_map_rehashes_total", "slserve_kgset_rehashes_total")
	v["keyed.read_retries_per_read"] = safeDiv(deltaSum(b, a, "slserve_map_read_retries_total", "slserve_kgset_read_retries_total"),
		kinds[opMapGet]+kinds[opKGSetHas])
	v["keyed.buckets"] = in.backEnd["slserve_map_buckets"] + in.backEnd["slserve_kgset_buckets"]
	v["migrate.rollovers"] = in.backEnd["slserve_rollovers_total"]

	for name, x := range in.replay {
		v[name] = x
	}
	v["capacity_rps"] = in.capacity

	mean, _ := selfTimes(in.tr.spans())
	for _, s := range selfTimedSpans {
		v["span."+spanNames[s]+".self_us"] = mean[s] / 1e3
	}
	// Tracing overhead: the median over adjacent (untraced, traced) pairs.
	var tput, p50 []float64
	for i := range in.untraced {
		tput = append(tput, safeDiv(in.traced[i].throughput(), in.untraced[i].throughput()))
		p50 = append(p50, safeDiv(in.traced[i].latencyMS(50), in.untraced[i].latencyMS(50)))
	}
	v["trace.throughput_ratio"] = median(tput)
	v["trace.latency_p50_ratio"] = median(p50)
	v["host.loopback_rtt_us"] = in.hostRTT
	return v
}

// describe renders a metric for the human-readable report.
func describe(wl string, m metricValue) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-34s %14.4f %-7s", wl, m.Name, m.Value, m.Unit)
	if m.Raw != 0 && m.Raw != m.Value {
		fmt.Fprintf(&b, " (raw %.4f)", m.Raw)
	}
	if m.Min != m.Max {
		fmt.Fprintf(&b, " min %.4f max %.4f", m.Min, m.Max)
	}
	if m.Samples > 0 {
		fmt.Fprintf(&b, " samples %d", m.Samples)
	}
	if m.Note != "" {
		b.WriteString(" " + m.Note)
	}
	return b.String()
}
