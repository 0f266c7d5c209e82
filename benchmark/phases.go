package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ladderRates are the open-loop rates the capacity ladder offers, one rung
// each, lowest first.
var ladderRates = []float64{8000, 16000, 24000, 32000, 40000}

// Capacity criteria: a rung passes when its exact p99 stays within the
// latency limit and its last answer lands within the drain limit of the
// schedule's end (no growing backlog).
const (
	capacityP99MS = 10.0
	capacityDrain = time.Second
)

// ladder offers each rate of ladderRates for an equal share of total and
// returns the highest rate that met the capacity criteria (0 if none did).
func (r *run) ladder(total time.Duration) float64 {
	rung := max(total/time.Duration(len(ladderRates)), time.Second)
	capacity := 0.0
	for _, rate := range ladderRates {
		st := r.load(fmt.Sprintf("ladder%.0f", rate), rung, rate).run(r.clients)
		// A rung's backlog is a verdict on capacity, not a failure: only
		// failed requests count against the run.
		r.attempted += st.attempted()
		r.failed += st.failed
		r.errs = append(r.errs, st.errs...)
		p99 := st.latencyMS(99)
		drain := st.lastDone.Sub(st.start.Add(rung))
		pass := st.failed == 0 && st.unsent == 0 && p99 <= capacityP99MS && drain <= capacityDrain
		fmt.Fprintf(os.Stderr, "%-14s ladder %6.0f rps: done %d, unsent %d, p99 %.3f ms, drained %v after the schedule, pass=%v\n",
			r.w.name, rate, st.ok, st.unsent, p99, drain.Round(time.Millisecond), pass)
		if pass {
			capacity = rate
		}
	}
	return capacity
}

// frontStats is the part of the frontend's /stats the failover reads.
type frontStats struct {
	CounterLedger int64 `json:"counter_ledger"`
	Backends      []struct {
		State string `json:"state"`
	} `json:"backends"`
	Objects map[string]struct {
		Owner   int  `json:"owner"`
		Settled bool `json:"settled"`
	} `json:"objects"`
}

// failover is the routed workload's fault phase. With the load paused, the
// frontend's counter ledger must equal the increments the clients saw
// acked. Then client 0 sends back-to-back /counter/inc probes while client 1
// keeps the routed mix going; a quarter in, the counter's owner is killed
// with SIGKILL, halfway it restarts empty on its old address, and the
// phase ends after dur. It returns the longest stretch from the kill on with
// no probe answered, and the acked increments the final counter lost.
func (r *run) failover(dur time.Duration) (gapMS, lostAcks float64, err error) {
	c0, c1 := r.clients[0], r.clients[1]
	var st frontStats
	if _, err := c0.getJSON("/stats", &st); err != nil {
		return 0, 0, err
	}
	if acked := r.m.counterAcked.Load(); st.CounterLedger != acked {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("before the fault: frontend counter_ledger = %d, clients saw %d acked", st.CounterLedger, acked))
	}
	owner := st.Objects["counter"].Owner
	if owner < 0 || owner >= len(r.topo.backends) {
		return 0, 0, fmt.Errorf("counter has no owner before the fault (owner %d)", owner)
	}

	r.faulted = true
	for _, c := range r.clients {
		// Degraded reads answer from the acked ledger, which may trail a
		// value a client read before the fault.
		c.monotone = false
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	probes := make([]time.Time, 0, sampleCapacity(dur, 1))
	var attempts, refused [2]int64
	var wrong [2][]string
	drive := func(i int, c *client, next func() op, answered func(*stamps)) {
		defer wg.Done()
		var ts stamps
		for !stop.Load() {
			ts.due = time.Now()
			ts.ready = ts.due
			err := c.do(next(), &ts)
			attempts[i]++
			switch {
			case err == nil:
				answered(&ts)
			case isCheckError(err):
				wrong[i] = append(wrong[i], err.Error())
			default:
				refused[i]++
			}
		}
	}
	gen := newOpGen(r.w, r.seed, "failover/c1")
	wg.Add(2)
	go drive(0, c0, func() op { return op{kind: opCounterInc} }, func(ts *stamps) { probes = append(probes, ts.resp) })
	go drive(1, c1, gen.next, func(*stamps) {})

	time.Sleep(dur / 4)
	killed := time.Now()
	r.topo.backends[owner].kill()
	time.Sleep(dur / 4)
	restartErr := r.topo.restartBackend(owner)
	time.Sleep(dur / 2)
	stop.Store(true)
	wg.Wait()
	if restartErr != nil {
		return 0, 0, restartErr
	}
	for i := range attempts {
		r.attempted += attempts[i]
		r.failed += int64(len(wrong[i]))
		r.errs = append(r.errs, wrong[i]...)
	}
	fmt.Fprintf(os.Stderr, "%-14s failover: killed backend %d; %d probes answered; requests refused during the fault: %d of %d\n",
		r.w.name, owner, len(probes), refused[0]+refused[1], attempts[0]+attempts[1])

	// Time without service: the longest stretch from the kill on in which
	// no probe was answered (the handoff back to the restarted backend can
	// open a second, shorter one).
	var gap time.Duration
	prev, answered := killed, false
	for _, t := range probes {
		if t.After(killed) {
			gap = max(gap, t.Sub(prev))
			prev, answered = t, true
		}
	}
	if !answered {
		r.failed++
		r.errs = append(r.errs, "failover: no /counter/inc answered after the kill")
		gap = time.Since(killed)
	}
	gapMS = float64(gap.Nanoseconds()) / 1e6
	if err := r.awaitSettled(); err != nil {
		return 0, 0, err
	}

	var v struct {
		Value *int64 `json:"value"`
	}
	if _, err := c0.getJSON("/counter", &v); err != nil || v.Value == nil {
		return 0, 0, fmt.Errorf("reading /counter after the fault: %v", err)
	}
	if _, err := c0.getJSON("/stats", &st); err != nil {
		return 0, 0, err
	}
	if *v.Value < st.CounterLedger {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("after the fault: /counter = %d is below the frontend ledger %d", *v.Value, st.CounterLedger))
	}
	lostAcks = float64(max(0, r.m.counterAcked.Load()-*v.Value))
	if lostAcks > 0 {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("after the fault: lost %.0f acked increments", lostAcks))
	}
	return gapMS, lostAcks, nil
}

// awaitSettled waits until the frontend sees every backend up and every
// object settled at an owner (the restarted backend re-adopts its objects
// through handoffs).
func (r *run) awaitSettled() error {
	deadline := time.Now().Add(10 * time.Second)
	for stable := 0; stable < 3; {
		if time.Now().After(deadline) {
			return fmt.Errorf("frontend did not settle within 10s after the fault")
		}
		time.Sleep(100 * time.Millisecond)
		var st frontStats
		if _, err := r.clients[0].getJSON("/stats", &st); err != nil {
			return err
		}
		settled := true
		for _, b := range st.Backends {
			settled = settled && b.State == "up"
		}
		for _, o := range st.Objects {
			settled = settled && o.Settled
		}
		if settled {
			stable++
		} else {
			stable = 0
		}
	}
	return nil
}
