// Command benchmark measures slserve end to end and layer by layer.
//
// It builds ./cmd/slserve from the tree under test, starts it as separate
// processes with their default flags, and drives it from this one process
// over at most two keep-alive connections. Every op, key, value and arrival
// time is drawn from -seed, and every answer is checked against what the
// benchmark itself wrote and saw acknowledged.
//
// Run one workload (from the repository root, through benchmark/run.sh,
// which keeps the Go build cache inside the checkout):
//
//	bash benchmark/run.sh -workload dense-closed -seed 1 -seconds 20 -trace 0
//
// -trace 0 measures the end-to-end metrics: three setups, a 2 s warm-up,
// then one one-second rep per measured second; each metric is the median of
// its reps (setup_s of its setups). -trace 1 is the separate traced run: one
// untraced and one traced rep, the workload's extra phase (the rate ladder
// on dense-open, the kill -9 failover on routed-closed), each a third of
// -seconds, then direct replays into the internal packages; it reports the
// per-layer metrics and writes the spans as JSONL under -build. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
//
//	bash benchmark/run.sh compare A.jsonl B.jsonl
//
// compares two sets of runs recorded with -out (see compare.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// record is one workload run as -out appends it, one JSON object per line.
type record struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Seconds   int    `json:"seconds"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// HostRTTus are the run's host probes (see host.go).
	HostRTTus []float64     `json:"host_rtt_us"`
	Metrics   []metricValue `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wlName := fs.String("workload", "all", "workload to run: dense-closed, dense-open, keyed-closed, routed-closed or all")
	seed := fs.Int64("seed", 1, "seed of every op, key, value and arrival time")
	seconds := fs.Int("seconds", 20, "measured seconds per run: one 1-s rep per second untraced, thirds when traced")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: the traced run and its per-layer metrics")
	out := fs.String("out", "", "append each run's record to this JSONL file (input of compare)")
	root := fs.String("root", ".", "root of the tree under test (holds cmd/slserve)")
	build := fs.String("build", ".bench_build", "directory for the slserve binary and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 3 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 3")
		return 2
	}
	var wls []workload
	if *wlName == "all" {
		wls = workloads
	} else {
		w, err := findWorkload(*wlName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		wls = []workload{w}
	}

	// Whatever ends this process, no server outlives it.
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	if err := os.MkdirAll(*build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bin, err := buildSlserve(*root, *build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range wls {
		r := &run{w: w, seed: *seed, seconds: *seconds, bin: bin, build: *build,
			hc: &http.Client{Timeout: 10 * time.Second}}
		var rec *record
		if *trace == 1 {
			rec, err = r.traced()
		} else {
			rec, err = r.untraced()
		}
		stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		for _, m := range rec.Metrics {
			fmt.Fprintln(os.Stderr, describe(w.name, m))
		}
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED CHECK: %s\n", w.name, e)
		}
		fmt.Fprintf(os.Stderr, "%-14s correct=%v attempted=%d failed=%d host_rtt_us=%.3f\n",
			w.name, rec.Correct, rec.Attempted, rec.Failed, median(rec.HostRTTus))
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
		if err := printResult(rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// printResult writes the run's result line to standard output.
func printResult(rec *record) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(rec.Metrics))
	for _, m := range rec.Metrics {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording run: %w", err)
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return fmt.Errorf("recording run: %w", err)
	}
	return f.Close()
}

// run is one workload run: its servers, its clients and the benchmark's
// record of every write.
type run struct {
	w       workload
	seed    int64
	seconds int
	bin     string
	build   string
	hc      *http.Client // control plane: health, scrapes

	keys    *keyNames
	m       *model
	topo    *topology
	clients []*client

	attempted, failed int64
	// faulted is set once the run has injected a fault, whose refused
	// requests are expected rather than counted as failed.
	faulted bool
	errs    []string
}

const (
	warmup = 2 * time.Second
	repDur = time.Second
	setups = 3
)

// reps is how many one-second reps fill the measured seconds.
func (r *run) reps() int { return r.seconds }

// setup starts the workload's servers and, on keyed workloads, preloads
// every key, returning how long that took.
func (r *run) setup() (time.Duration, error) {
	if r.keys == nil {
		r.keys = newKeyNames(r.w.keys)
	}
	start := time.Now()
	topo, err := startTopology(r.bin, r.w.routed, r.hc)
	if err != nil {
		return 0, err
	}
	r.topo = topo
	r.m = newModel(r.w.keys)
	r.clients = []*client{
		newClient(topo.entry(), r.m, r.keys),
		newClient(topo.entry(), r.m, r.keys),
	}
	if r.w.keyed() {
		ops := preloadOps(r.w, r.seed)
		bad := sweep(r.clients, len(ops), func(c *client, i int) error {
			var ts stamps
			return c.do(ops[i], &ts)
		})
		r.attempted += int64(len(ops))
		if len(bad) > 0 {
			r.failed += int64(len(bad))
			r.errs = append(r.errs, bad...)
			return 0, fmt.Errorf("preload failed: %s", bad[0])
		}
	}
	return time.Since(start), nil
}

func (r *run) teardown() {
	for _, c := range r.clients {
		c.close()
	}
	if r.topo != nil {
		r.topo.stop()
		r.topo = nil
	}
}

// load builds the named stretch of traffic: stream names keep every rep's
// ops and arrivals distinct and reproducible.
func (r *run) load(stream string, dur time.Duration, rate float64) load {
	l := load{dur: dur}
	if rate > 0 {
		l.sched = poissonSchedule(rate, dur, r.seed, r.w.name, stream)
		g := newOpGen(r.w, r.seed, stream+"/ops")
		l.ops = make([]op, len(l.sched))
		for i := range l.ops {
			l.ops[i] = g.next()
		}
		return l
	}
	for i := range r.clients {
		l.gens = append(l.gens, newOpGen(r.w, r.seed, stream+"/c"+strconv.Itoa(i)))
	}
	return l
}

// drive runs l and folds its counts into the run's.
func (r *run) drive(phase string, l load) *repStats {
	st := l.run(r.clients)
	r.attempted += st.attempted()
	r.failed += st.failed + st.unsent
	for _, e := range st.errs {
		r.errs = append(r.errs, phase+": "+e)
	}
	if st.unsent > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d requests never sent (generator fell >2s behind)", phase, st.unsent))
	}
	return st
}

// checkAll runs the final checks and records violations. They are exact
// only if every request of the run succeeded: after a tolerated failure (a
// request refused during the failover) a write may or may not have landed.
func (r *run) checkAll() {
	bad := r.finalChecks(r.failed == 0 && !r.faulted)
	r.failed += int64(len(bad))
	r.errs = append(r.errs, bad...)
}

// scrapeAll scrapes every backend (summed) and the frontend, if any.
func (r *run) scrapeAll() (back, front promSample, err error) {
	var bs []promSample
	for _, p := range r.topo.backends {
		s, err := scrape(r.hc, p.url())
		if err != nil {
			return nil, nil, err
		}
		bs = append(bs, s)
	}
	if r.topo.front != nil {
		if front, err = scrape(r.hc, r.topo.front.url()); err != nil {
			return nil, nil, err
		}
	}
	return addSamples(bs...), front, nil
}

func (r *run) record(trace bool, metrics []metricValue) *record {
	return &record{
		Workload: r.w.name, Seed: r.seed, Trace: trace, Seconds: r.seconds,
		Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: metrics,
	}
}

// untraced is the end-to-end run. A host probe is taken right before every
// setup and rep, and each metric's median is normalized by the median probe
// (see host.go).
func (r *run) untraced() (*record, error) {
	defer r.teardown()
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var rtts, setupS, tput, p50, p99 []float64
	for i := 0; i < setups; i++ {
		rtt, err := probe.rttUS()
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, rtt)
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			r.teardown()
		}
	}
	r.drive("warm-up", r.load("warm", warmup, r.w.rate))
	var ok int64
	fewest := -1 // samples in the smallest rep
	for i := 1; i <= r.reps(); i++ {
		rtt, err := probe.rttUS()
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, rtt)
		st := r.drive(fmt.Sprintf("rep %d", i), r.load(fmt.Sprintf("rep%d", i), repDur, r.w.rate))
		tput = append(tput, st.throughput())
		p50 = append(p50, st.latencyMS(50))
		p99 = append(p99, st.latencyMS(99))
		ok += st.ok
		if fewest < 0 || len(st.lat) < fewest {
			fewest = len(st.lat)
		}
	}
	r.checkAll()
	rss, err := r.topo.rssMB()
	if err != nil {
		return nil, err
	}
	rtt := median(rtts)
	metric := func(name, unit string, vals []float64, norm func(v, rtt float64) float64, samples int64, note string) metricValue {
		lo, hi := minMax(vals)
		return metricValue{Name: name, Unit: unit, Value: norm(median(vals), rtt), Raw: median(vals),
			Min: norm(lo, rtt), Max: norm(hi, rtt), Samples: samples, Reps: vals, Note: note}
	}
	tail := fmt.Sprintf("(median of %d reps; fewest samples in a rep %d; highest percentile with >=10 samples beyond it: %s)",
		r.reps(), fewest, pctName(highestSupported(fewest)))
	metrics := []metricValue{
		metric("setup_s", "s", setupS, normTime, setups, fmt.Sprintf("(median of %d setups)", setups)),
		metric("throughput_rps", "rps", tput, normRate, ok, fmt.Sprintf("(median of %d reps)", r.reps())),
		metric("latency_p50_ms", "ms", p50, normTime, ok, tail),
		metric("latency_p99_ms", "ms", p99, normTime, ok, tail),
		{Name: "rss_mb", Unit: "MB", Value: rss, Raw: rss, Min: rss, Max: rss, Samples: int64(len(r.topo.all())),
			Note: "(summed VmHWM of the server processes)"},
	}
	rec := r.record(false, metrics)
	rec.HostRTTus = rtts
	return rec, nil
}

// traced is the per-layer run.
func (r *run) traced() (*record, error) {
	defer r.teardown()
	if _, err := r.setup(); err != nil {
		return nil, err
	}
	r.drive("warm-up", r.load("warm", warmup, r.w.rate))

	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	in := layerInputs{w: r.w}
	rttB, err1 := probe.rttUS()
	selfB, err2 := procCPUms("self")
	serverB, err3 := r.topo.cpuMS()
	var err4, err5, err6, err7, err8 error
	in.backB, in.frontB, err4 = r.scrapeAll()
	// The first two thirds of the measured seconds alternate one-second
	// untraced and traced reps, so host drift hits both alike; the last
	// third is the workload's extra phase.
	part := time.Duration(r.seconds) * time.Second / 3
	pairs := max(1, int(part/repDur))
	for i := 1; i <= pairs; i++ {
		u := r.drive("untraced rep", r.load(fmt.Sprintf("rep%d", 2*i-1), repDur, r.w.rate))
		if in.tr == nil {
			// Span buffers sized from the first rep with half again to
			// spare, plus one buffer for the replays.
			in.tr = newTracer(len(r.clients)+1, int(u.ok)*3/2*pairs/len(r.clients)*4+4096)
		}
		l := r.load(fmt.Sprintf("rep%d", 2*i), repDur, r.w.rate)
		l.tr = in.tr
		in.untraced = append(in.untraced, u)
		in.traced = append(in.traced, r.drive("traced rep", l))
	}
	in.backA, in.frontA, err5 = r.scrapeAll()
	selfA, err6 := procCPUms("self")
	serverA, err7 := r.topo.cpuMS()
	rttA, err8 := probe.rttUS()
	if err := errors.Join(err1, err2, err3, err4, err5, err6, err7, err8); err != nil {
		return nil, err
	}
	in.selfCPU, in.serverCPU = selfA-selfB, serverA-serverB
	in.hostRTT = (rttB + rttA) / 2

	switch {
	case r.w.rate > 0:
		in.capacity = r.ladder(part)
	case r.w.routed:
		if in.failoverGapMS, in.lostAcks, err = r.failover(max(part, 4*time.Second)); err != nil {
			return nil, err
		}
	}
	r.checkAll()
	if in.backEnd, in.frontEnd, err = r.scrapeAll(); err != nil {
		return nil, err
	}

	// The replays feed each layer the first untraced rep's op streams. The
	// servers stop first: a keyed replay builds tables as large as theirs.
	r.teardown()
	seq := r.load("rep1", repDur, r.w.rate)
	ops := seq.ops
	if ops == nil {
		n := min(int(in.untraced[0].ok), maxReplayOps)
		for i := 0; len(ops) < n; i = (i + 1) % len(seq.gens) {
			ops = append(ops, seq.gens[i].next())
		}
	}
	if in.replay, err = replay(r.w, r.seed, ops, r.keys, in.tr, len(r.clients)); err != nil {
		return nil, err
	}

	spanDir := filepath.Join(r.build, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(spanDir, r.w.name+".jsonl")
	if err := in.tr.writeJSONL(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%-14s spans written to %s (%d dropped)\n", r.w.name, spanFile, in.tr.dropped)

	vals := layerValues(in)
	metrics := make([]metricValue, 0, len(layerMetrics))
	for _, d := range layerMetrics {
		x := vals[d.name]
		metrics = append(metrics, metricValue{Name: d.name, Unit: d.unit, Value: x, Min: x, Max: x})
	}
	rec := r.record(true, metrics)
	rec.HostRTTus = []float64{rttB, rttA}
	return rec, nil
}
