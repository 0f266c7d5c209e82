package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: every sample
// line keyed by its series (metric name plus any label set, verbatim).
type promSample map[string]float64

// parseProm reads the Prometheus text format (version 0.0.4): comment and
// blank lines are skipped; every other line is `series value [timestamp]`.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		// The series may carry labels with spaces inside quotes; the value
		// follows the closing brace when there is one.
		rest := text
		series := ""
		if i := strings.IndexByte(text, '{'); i >= 0 {
			j := strings.LastIndexByte(text, '}')
			if j < i {
				return nil, fmt.Errorf("prometheus text line %d: unbalanced labels: %q", line, text)
			}
			series, rest = text[:j+1], text[j+1:]
		} else {
			sp := strings.IndexAny(text, " \t")
			if sp < 0 {
				return nil, fmt.Errorf("prometheus text line %d: no value: %q", line, text)
			}
			series, rest = text[:sp], text[sp:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("prometheus text line %d: want `series value [timestamp]`: %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text line %d: value: %w", line, err)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading prometheus text: %w", err)
	}
	return out, nil
}

// delta returns after-before for one series (counters and histogram
// sums/counts); a series missing from a scrape reads as 0.
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// deltaSum sums delta over several series.
func deltaSum(before, after promSample, series ...string) float64 {
	var s float64
	for _, name := range series {
		s += delta(before, after, name)
	}
	return s
}

// histMean is the mean observation of a histogram family between two
// scrapes (its _sum delta over its _count delta), or 0 with no observations.
func histMean(before, after promSample, family string) (mean, count float64) {
	count = delta(before, after, family+"_count")
	if count == 0 {
		return 0, 0
	}
	return delta(before, after, family+"_sum") / count, count
}

// scrape fetches and parses base+"/metrics".
func scrape(hc *http.Client, base string) (promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// addSamples sums several scrapes series by series (the backends of the
// routed tier expose the same families).
func addSamples(samples ...promSample) promSample {
	out := make(promSample)
	for _, s := range samples {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
