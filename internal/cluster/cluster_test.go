package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stronglin/internal/cluster"
)

// TestRendezvousOwnerProperties pins the routing function's contract:
// deterministic, total over alive candidates, balanced enough to use, and
// MINIMALLY DISRUPTIVE — removing one member re-maps only that member's
// keys, never a survivor's (the property that keeps a backend death from
// triggering a cluster-wide handoff storm).
func TestRendezvousOwnerProperties(t *testing.T) {
	members := []string{
		"http://b0.internal:9001",
		"http://b1.internal:9002",
		"http://b2.internal:9003",
	}
	all := []int{0, 1, 2}

	counts := make([]int, 3)
	ownerOfAll := make(map[string]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("obj-%d", i)
		o := cluster.RendezvousOwner(key, members, all)
		if o < 0 || o > 2 {
			t.Fatalf("owner(%q) = %d out of range", key, o)
		}
		if o2 := cluster.RendezvousOwner(key, members, all); o2 != o {
			t.Fatalf("owner(%q) nondeterministic: %d then %d", key, o, o2)
		}
		counts[o]++
		ownerOfAll[key] = o
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d owns nothing across 300 keys: degenerate hash (%v)", i, counts)
		}
	}

	// Kill backend 1: its keys re-map, everyone else's keys DO NOT move.
	for key, was := range ownerOfAll {
		now := cluster.RendezvousOwner(key, members, []int{0, 2})
		if was != 1 && now != was {
			t.Fatalf("key %q moved %d -> %d though its owner survived (disruption)", key, was, now)
		}
		if was == 1 && now == 1 {
			t.Fatalf("key %q still maps to the dead backend", key)
		}
	}

	if o := cluster.RendezvousOwner("anything", members, nil); o != -1 {
		t.Fatalf("owner with no candidates = %d, want -1", o)
	}
}

// httpProbe is a Probe that GETs base's /healthz within timeout, as the
// frontend probes a backend.
func httpProbe(base string, timeout time.Duration) cluster.Probe {
	cl := &http.Client{Timeout: timeout}
	return func(ctx context.Context, _ int) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return 0, err
		}
		resp, err := cl.Do(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
}

// TestHealthLadderTransitions walks one backend through the slserve
// /healthz ladder and checks the debounced classification: 200 = up, 429 =
// degraded immediately (alive — no debounce between the live states), 503
// and unreachable count toward down only after DownAfter consecutive bad
// probes, and recovery needs UpAfter consecutive good ones.
func TestHealthLadderTransitions(t *testing.T) {
	var code atomic.Int64
	code.Store(http.StatusOK)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %q, want /healthz", r.URL.Path)
		}
		w.WriteHeader(int(code.Load()))
	}))
	defer ts.Close()

	var epochs []int64
	h := cluster.NewHealth(1, httpProbe(ts.URL, time.Second), cluster.HealthConfig{
		Interval:  time.Hour, // sweeps are driven manually
		DownAfter: 2, UpAfter: 2,
	}, func(ep int64) { epochs = append(epochs, ep) })
	ctx := context.Background()

	h.Sweep(ctx)
	if got := h.State(0); got != cluster.StateUp {
		t.Fatalf("after 200 probe: %v, want up", got)
	}

	code.Store(http.StatusTooManyRequests)
	h.Sweep(ctx)
	if got := h.State(0); got != cluster.StateDegraded {
		t.Fatalf("after 429 probe: %v, want degraded (immediate: the backend answered)", got)
	}
	if v := h.View(); !v.Alive[0] {
		t.Fatal("degraded backend must stay a candidate owner")
	}

	code.Store(http.StatusServiceUnavailable)
	h.Sweep(ctx)
	if got := h.State(0); got == cluster.StateDown {
		t.Fatal("one 503 probe must not take the backend down (debounce)")
	}
	h.Sweep(ctx)
	if got := h.State(0); got != cluster.StateDown {
		t.Fatalf("after 2 consecutive 503 probes: %v, want down", got)
	}
	if v := h.View(); v.Alive[0] {
		t.Fatal("down backend must not be a candidate owner")
	}

	code.Store(http.StatusOK)
	h.Sweep(ctx)
	if got := h.State(0); got != cluster.StateDown {
		t.Fatal("one good probe must not revive the backend (debounce)")
	}
	h.Sweep(ctx)
	if got := h.State(0); got != cluster.StateUp {
		t.Fatalf("after 2 consecutive 200 probes: %v, want up", got)
	}

	// Four transitions (up->degraded, degraded->down... state changes:
	// 200: nothing on first sweep? initial state is up and first sweep
	// confirms it) — what matters: epochs strictly increase and match Epoch.
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not strictly increasing: %v", epochs)
		}
	}
	if len(epochs) == 0 || h.Epoch() != epochs[len(epochs)-1] {
		t.Fatalf("epoch bookkeeping drifted: notified %v, Epoch() %d", epochs, h.Epoch())
	}
}

// TestHealthUnreachableBackend: a probe against a dead address counts
// toward down exactly like a 503.
func TestHealthUnreachableBackend(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // dead on arrival
	h := cluster.NewHealth(1, httpProbe(ts.URL, 200*time.Millisecond), cluster.HealthConfig{
		Interval: time.Hour, DownAfter: 2, UpAfter: 2,
	}, nil)
	ctx := context.Background()
	h.Sweep(ctx)
	h.Sweep(ctx)
	if got := h.State(0); got != cluster.StateDown {
		t.Fatalf("unreachable backend: %v, want down", got)
	}
}
