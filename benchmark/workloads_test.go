package main

import (
	"reflect"
	"testing"
	"time"
)

// TestSameSeedSameInputs: every op, key, value and arrival time is a
// function of the seed and the stream name alone.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		draw := func(seed int64, stream string) []op {
			g := newOpGen(w, seed, stream)
			ops := make([]op, 5000)
			for i := range ops {
				ops[i] = g.next()
			}
			return ops
		}
		if !reflect.DeepEqual(draw(7, "rep1/c0"), draw(7, "rep1/c0")) {
			t.Errorf("%s: same seed and stream drew different ops", w.name)
		}
		if reflect.DeepEqual(draw(7, "rep1/c0"), draw(8, "rep1/c0")) {
			t.Errorf("%s: seeds 7 and 8 drew the same ops", w.name)
		}
		if reflect.DeepEqual(draw(7, "rep1/c0"), draw(7, "rep1/c1")) {
			t.Errorf("%s: two clients drew the same ops", w.name)
		}
		if !reflect.DeepEqual(preloadOps(w, 3), preloadOps(w, 3)) {
			t.Errorf("%s: same seed gave different preloads", w.name)
		}
	}
	a := poissonSchedule(8000, time.Second, 5, "dense-open", "rep1")
	b := poissonSchedule(8000, time.Second, 5, "dense-open", "rep1")
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8000, time.Second, 6, "dense-open", "rep1")) {
		t.Error("seeds 5 and 6 gave the same arrival schedule")
	}
	// About rate*dur arrivals, ascending, inside the window.
	if n := len(a); n < 7600 || n > 8400 {
		t.Errorf("8000/s for 1s drew %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("schedule not ascending inside [0, 1s) at %d: %v", i, a[i])
		}
	}
}

// TestMixesAndPreload checks the op mixes keep to their weights and their
// key families, and that a preload writes every key of every written family
// exactly once.
func TestMixesAndPreload(t *testing.T) {
	for _, w := range workloads {
		total := 0
		for _, e := range w.mix {
			total += e.weight
		}
		if total != 100 {
			t.Errorf("%s: mix weights sum to %d, want 100", w.name, total)
		}
		g := newOpGen(w, 1, "mix")
		counts := map[opKind]int{}
		const n = 100000
		for i := 0; i < n; i++ {
			o := g.next()
			counts[o.kind]++
			if w.keyed() && o.fam != famNone && (o.key < 0 || int(o.key) >= w.keys) {
				t.Fatalf("%s: key %d outside %d keys", w.name, o.key, w.keys)
			}
			if o.kind == opMapInc && o.fam != famInc || o.kind == opMapMax && o.fam != famMax {
				t.Fatalf("%s: %v drawn from family %v", w.name, o.kind, o.fam)
			}
		}
		want := map[opKind]int{}
		for _, e := range w.mix {
			want[e.kind] += e.weight
		}
		for k, pct := range want {
			if got := float64(counts[k]) / n * 100; got < float64(pct)-1 || got > float64(pct)+1 {
				t.Errorf("%s: op %d drawn %.1f%% of the time, want %d%%", w.name, k, got, pct)
			}
		}
		if !w.keyed() {
			if len(preloadOps(w, 1)) != 0 {
				t.Errorf("%s: dense workload preloads", w.name)
			}
			continue
		}
		seen := map[[2]int]int{}
		for _, o := range preloadOps(w, 1) {
			seen[[2]int{int(o.fam), int(o.key)}]++
		}
		for k, c := range seen {
			if c != 1 {
				t.Errorf("%s: preload writes family %d key %d %d times", w.name, k[0], k[1], c)
			}
		}
		families := map[family]bool{}
		for _, e := range w.mix {
			if e.kind == opMapInc || e.kind == opMapMax || e.kind == opKGSetAdd {
				families[e.fam] = true
			}
		}
		if len(seen) != len(families)*w.keys {
			t.Errorf("%s: preload covers %d keys, want %d", w.name, len(seen), len(families)*w.keys)
		}
	}
}
