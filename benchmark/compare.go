package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type bound struct {
	lowerIsBetter bool
	share         float64
}

// Verdicts of one compare row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info" // no bound: a per-layer metric
)

type compareRow struct {
	workload, metric   string
	medA, medB         float64
	q1A, q3A, q1B, q3B float64
	spreadA, spreadB   float64
	worse              float64 // share by which B is worse than A
	verdict            string
}

// compareMain is `benchmark compare [-bench BENCHMARK.json] A.jsonl B.jsonl`:
// one row per (workload, metric) present in both sets of runs, with each
// side's median and quartiles across its runs. A bounded row whose median
// got worse by more than its bound is regressed; a row whose run-to-run
// spread (interquartile distance over median) exceeds its bound on either
// side is unresolved, unless every run of B is worse than every run of A by
// more than the bound. It exits 1 if any row regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	a, err1 := loadRecords(fs.Arg(0))
	b, err2 := loadRecords(fs.Arg(1))
	if err1 != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err1, err2)
		return 2
	}
	rows := compareRuns(a, b, bounds)
	printRows(os.Stdout, rows)
	for _, r := range rows {
		if r.verdict == verdictRegressed {
			return 1
		}
	}
	return 0
}

func loadBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{lowerIsBetter: m.Better == "lower", share: m.Bound}
	}
	return out, nil
}

// loadRecords reads a JSONL file of run records.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// byMetric groups each run's metric values by (workload, metric).
func byMetric(recs []record) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, rec := range recs {
		for _, m := range rec.Metrics {
			k := [2]string{rec.Workload, m.Name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

func compareRuns(a, b []record, bounds map[string]bound) []compareRow {
	va, vb := byMetric(a), byMetric(b)
	var rows []compareRow
	for k, xs := range va {
		ys, ok := vb[k]
		if !ok {
			continue
		}
		r := compareRow{workload: k[0], metric: k[1], medA: median(xs), medB: median(ys),
			spreadA: spread(xs), spreadB: spread(ys), verdict: verdictInfo}
		r.q1A, r.q3A = quartiles(xs)
		r.q1B, r.q3B = quartiles(ys)
		bd, bounded := bounds[k[1]]
		if bounded {
			r.worse = worseShare(r.medA, r.medB, bd.lowerIsBetter)
			r.verdict = verdict(xs, ys, r, bd)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

// worseShare is how much worse b is than a, as a share of a (negative when
// b is better).
func worseShare(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerIsBetter {
		return (b - a) / a
	}
	return (a - b) / a
}

func verdict(xs, ys []float64, r compareRow, bd bound) string {
	if r.spreadA > bd.share || r.spreadB > bd.share {
		// Too noisy to call, unless the runs do not even overlap.
		worstA, bestB := xs[0], ys[0]
		for _, x := range xs {
			if worseShare(worstA, x, bd.lowerIsBetter) > 0 {
				worstA = x
			}
		}
		for _, y := range ys {
			if worseShare(bestB, y, bd.lowerIsBetter) < 0 {
				bestB = y
			}
		}
		if worseShare(worstA, bestB, bd.lowerIsBetter) > bd.share {
			return verdictRegressed
		}
		return verdictUnresolved
	}
	if r.worse > bd.share {
		return verdictRegressed
	}
	return verdictOK
}

func printRows(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-14s %-34s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "worse", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-34s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %+7.1f%%  %s\n",
			r.workload, r.metric, r.medA, r.q1A, r.q3A, r.medB, r.q1B, r.q3B, 100*r.worse, r.verdict)
	}
}
