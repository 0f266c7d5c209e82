package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	tr := newTracer(1, 16)
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	// due 0, ready 10, send 12, resp 52, done 55: the root's self time is
	// the 2us between ready and send.
	tr.request(0, &stamps{due: at(0), ready: at(10), send: at(12), resp: at(52), done: at(55)})
	tr.request(0, &stamps{due: at(100), ready: at(100), send: at(104), resp: at(124), done: at(130)})
	tr.add(0, tr.newReq(0), spanReplayShard, at(200), at(260))
	mean, count := selfTimes(tr.spans())
	for _, c := range []struct {
		name  int
		count int64
		us    float64
	}{
		{spanRequest, 2, 3},    // (2 + 4) / 2
		{spanWait, 2, 5},       // (10 + 0) / 2
		{spanRoundtrip, 2, 30}, // (40 + 20) / 2
		{spanDecode, 2, 4.5},   // (3 + 6) / 2
		{spanReplayShard, 1, 60},
	} {
		if count[c.name] != c.count || mean[c.name] != c.us*1e3 {
			t.Errorf("%s: self %v ns over %d spans, want %v us over %d", spanNames[c.name], mean[c.name], count[c.name], c.us, c.count)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {2, 3}, {10, 12}}, 12},
		{[][2]int64{{5, 5}, {7, 6}}, 0},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestTracerDropsWhenFull(t *testing.T) {
	tr := newTracer(1, 4)
	now := time.Now()
	tr.request(0, &stamps{due: now, ready: now, send: now, resp: now, done: now})
	tr.request(0, &stamps{due: now, ready: now, send: now, resp: now, done: now})
	if len(tr.spans()) != 4 || tr.dropped != 4 {
		t.Errorf("kept %d spans, dropped %d; want 4 and 4", len(tr.spans()), tr.dropped)
	}
}
