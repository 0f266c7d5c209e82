package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// runs builds n synthetic run records of one workload whose metrics are
// base*(1 +- jitter), drawn from seed.
func runs(n int, seed int64, jitter float64, base map[string]float64) []record {
	rng := rand.New(rand.NewSource(seed))
	var out []record
	for i := 0; i < n; i++ {
		rec := record{Workload: "dense-closed", Seed: int64(i)}
		for _, name := range []string{"throughput_rps", "latency_p50_ms", "pool.with_ns"} {
			v := base[name] * (1 + jitter*(2*rng.Float64()-1))
			rec.Metrics = append(rec.Metrics, metricValue{Name: name, Value: v})
		}
		out = append(out, rec)
	}
	return out
}

var testBounds = map[string]bound{
	"throughput_rps": {lowerIsBetter: false, share: 0.2},
	"latency_p50_ms": {lowerIsBetter: true, share: 0.2},
}

func verdicts(rows []compareRow) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.metric] = r.verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]float64{"throughput_rps": 40000, "latency_p50_ms": 0.035, "pool.with_ns": 60}
	slow := map[string]float64{"throughput_rps": 20000, "latency_p50_ms": 0.070, "pool.with_ns": 120}
	a := runs(10, 1, 0.03, base)

	same := verdicts(compareRuns(a, runs(10, 2, 0.03, base), testBounds))
	if same["throughput_rps"] != verdictOK || same["latency_p50_ms"] != verdictOK {
		t.Errorf("same code: %v, want ok", same)
	}
	if same["pool.with_ns"] != verdictInfo {
		t.Errorf("unbounded per-layer metric: %v, want info", same["pool.with_ns"])
	}

	// A doctored 2x slowdown: half the throughput, twice the latency.
	doctored := verdicts(compareRuns(a, runs(10, 3, 0.03, slow), testBounds))
	if doctored["throughput_rps"] != verdictRegressed || doctored["latency_p50_ms"] != verdictRegressed {
		t.Errorf("2x slowdown: %v, want regressed", doctored)
	}

	// A 2x speed-up is not a regression.
	fast := map[string]float64{"throughput_rps": 80000, "latency_p50_ms": 0.0175}
	if v := verdicts(compareRuns(a, runs(10, 4, 0.03, fast), testBounds)); v["throughput_rps"] != verdictOK || v["latency_p50_ms"] != verdictOK {
		t.Errorf("2x speed-up: %v, want ok", v)
	}

	// Runs too noisy to call are unresolved, unless even the best run of B
	// is worse than the worst run of A by more than the bound.
	noisy := verdicts(compareRuns(a, runs(10, 5, 0.5, map[string]float64{"throughput_rps": 36000, "latency_p50_ms": 0.038}), testBounds))
	if noisy["throughput_rps"] != verdictUnresolved || noisy["latency_p50_ms"] != verdictUnresolved {
		t.Errorf("noisy runs: %v, want unresolved", noisy)
	}
	noisyA := runs(10, 6, 0.3, base)
	apart := runs(10, 7, 0.05, map[string]float64{"throughput_rps": 10000, "latency_p50_ms": 0.2})
	if v := verdicts(compareRuns(noisyA, apart, testBounds)); v["throughput_rps"] != verdictRegressed || v["latency_p50_ms"] != verdictRegressed {
		t.Errorf("noisy but disjoint: %v, want regressed", v)
	}
}

// TestCompareMainExitCode runs the subcommand end to end on files.
func TestCompareMainExitCode(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [
		{"name": "throughput_rps", "unit": "rps", "better": "higher", "bound": 0.2},
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}`
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := map[string]float64{"throughput_rps": 40000, "latency_p50_ms": 0.035, "pool.with_ns": 60}
	a := write("a.jsonl", runs(5, 1, 0.02, base))
	b := write("b.jsonl", runs(5, 2, 0.02, base))
	slow := write("slow.jsonl", runs(5, 3, 0.02, map[string]float64{"throughput_rps": 20000, "latency_p50_ms": 0.07}))

	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = stdout }()
	if code := compareMain([]string{"-bench", bench, a, b}); code != 0 {
		t.Errorf("same code: exit %d, want 0", code)
	}
	if code := compareMain([]string{"-bench", bench, a, slow}); code != 1 {
		t.Errorf("2x slowdown: exit %d, want 1", code)
	}
	if code := compareMain([]string{"-bench", bench, a}); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}
