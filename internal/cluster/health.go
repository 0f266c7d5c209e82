package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// HealthConfig tunes the active checker.
type HealthConfig struct {
	// Interval between probe sweeps; Timeout bounds each probe, which the
	// Probe enforces (it defaults to Interval).
	Interval, Timeout time.Duration
	// DownAfter consecutive bad probes (unreachable or 503) take a backend
	// down; UpAfter consecutive good probes (200/429) bring it back. Both
	// default to 2 — one flaky probe must not trigger a handoff storm.
	DownAfter, UpAfter int
}

// WithDefaults fills in the zero fields.
func (c HealthConfig) WithDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	return c
}

// Probe asks backend i for its /healthz status; an error means the backend
// did not answer.
type Probe func(ctx context.Context, i int) (status int, err error)

// The /healthz statuses that keep a backend a candidate owner.
const (
	statusOK              = 200
	statusTooManyRequests = 429
)

// Health actively probes each backend's /healthz and classifies it through
// the slserve watermark ladder: 200 = up, 429 = degraded (alive, shedding —
// keeps its ownerships), 503 or unreachable = counting toward down (a 503
// healthz means a budget is nearly spent or the process is gone; either
// way ownership should move). Transitions are debounced by consecutive-probe
// thresholds, and every sweep that changes any state bumps the view epoch
// and notifies the owner (the frontend's reconciler).
type Health struct {
	probe Probe
	cfg   HealthConfig

	states []atomic.Int32 // BackendState per backend
	epoch  atomic.Int64

	// onChange, when set, is called (outside any lock) after a sweep that
	// changed at least one backend's state, with the new epoch.
	onChange func(epoch int64)

	mu       sync.Mutex // guards the consecutive-probe streaks
	badRuns  []int
	goodRuns []int
}

// NewHealth builds a checker over n backends that probe reaches. onChange
// may be nil. No probes run until Start or Sweep.
func NewHealth(n int, probe Probe, cfg HealthConfig, onChange func(epoch int64)) *Health {
	return &Health{
		probe:    probe,
		cfg:      cfg.WithDefaults(),
		states:   make([]atomic.Int32, n),
		badRuns:  make([]int, n),
		goodRuns: make([]int, n),
		onChange: onChange,
	}
}

// Start runs probe sweeps every Interval until ctx is done.
func (h *Health) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(h.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				h.Sweep(ctx)
			}
		}
	}()
}

// Sweep probes every backend once (concurrently) and applies the debounced
// transitions; it returns true if any state changed. Exported so tests and
// the frontend's startup path can drive the checker deterministically.
func (h *Health) Sweep(ctx context.Context) bool {
	good := make([]bool, len(h.states))
	degraded := make([]bool, len(h.states))
	var wg sync.WaitGroup
	for i := range h.states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			good[i], degraded[i] = h.classify(ctx, i)
		}(i)
	}
	wg.Wait()

	h.mu.Lock()
	changed := false
	for i := range h.states {
		old := BackendState(h.states[i].Load())
		next := old
		if good[i] {
			h.goodRuns[i]++
			h.badRuns[i] = 0
			target := StateUp
			if degraded[i] {
				target = StateDegraded
			}
			// Up<->Degraded moves are immediate (the backend answered; only
			// its shedding signal changed); leaving Down is debounced.
			if old != StateDown || h.goodRuns[i] >= h.cfg.UpAfter {
				next = target
			}
		} else {
			h.badRuns[i]++
			h.goodRuns[i] = 0
			if h.badRuns[i] >= h.cfg.DownAfter {
				next = StateDown
			}
		}
		if next != old {
			h.states[i].Store(int32(next))
			changed = true
		}
	}
	h.mu.Unlock()
	if changed {
		ep := h.epoch.Add(1)
		if h.onChange != nil {
			h.onChange(ep)
		}
	}
	return changed
}

// classify probes backend i once: good (alive) and whether it answered
// shedding (429).
func (h *Health) classify(ctx context.Context, i int) (good, degraded bool) {
	status, err := h.probe(ctx, i)
	switch {
	case err != nil:
		return false, false
	case status == statusOK:
		return true, false
	case status == statusTooManyRequests:
		return true, true
	default: // 503 and anything unexpected count toward down
		return false, false
	}
}

// State returns backend i's current classification.
func (h *Health) State(i int) BackendState { return BackendState(h.states[i].Load()) }

// Epoch returns the current view epoch (bumped on every state change).
func (h *Health) Epoch() int64 { return h.epoch.Load() }

// View snapshots the membership: a backend is a candidate owner unless Down.
func (h *Health) View() View {
	v := View{Epoch: h.epoch.Load(), Alive: make([]bool, len(h.states))}
	for i := range h.states {
		v.Alive[i] = BackendState(h.states[i].Load()) != StateDown
	}
	return v
}
