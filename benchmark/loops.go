package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// load describes one measured (or warm-up) stretch of traffic.
type load struct {
	dur time.Duration
	// Closed loop: gens[i] is client i's op stream. Open loop: sched holds
	// the due offsets and ops the op sent at each one.
	gens  []*opGen
	sched []time.Duration
	ops   []op
	// tr records spans when non-nil (the traced rep).
	tr *tracer
}

func (l load) open() bool { return l.sched != nil }

// clientStats is one client's share of a rep, kept in slices sized up front
// so recording a sample never allocates in the measured loop.
type clientStats struct {
	lat, lag   []int64 // ns: due->response, due->send
	rtSum      int64   // ns: send->response
	ok, failed int64
	unsent     int64
	kinds      [numOps]int64
	lastDone   time.Time
	firstErrs  []string
}

func newClientStats(capacity int) *clientStats {
	return &clientStats{lat: prefault(make([]int64, 0, capacity)), lag: prefault(make([]int64, 0, capacity))}
}

// prefault writes every page of s's backing array and returns s emptied, so
// the measured loop appending into it takes no first-touch page faults
// (costly on a nested VM: they showed as a 10% slower traced rep).
func prefault[T any](s []T) []T {
	s = s[:cap(s)]
	var zero T
	step := max(1, 4096/max(1, int(unsafe.Sizeof(zero))))
	for i := 0; i < len(s); i += step {
		s[i] = zero
	}
	return s[:0]
}

func (s *clientStats) record(o op, ts *stamps, err error) {
	if err != nil {
		s.failed++
		if len(s.firstErrs) < 5 {
			s.firstErrs = append(s.firstErrs, err.Error())
		}
		return
	}
	s.ok++
	s.kinds[o.kind]++
	s.lat = append(s.lat, ts.resp.Sub(ts.due).Nanoseconds())
	s.lag = append(s.lag, ts.send.Sub(ts.due).Nanoseconds())
	s.rtSum += ts.resp.Sub(ts.send).Nanoseconds()
	if ts.done.After(s.lastDone) {
		s.lastDone = ts.done
	}
}

// repStats merges the clients' stats of one rep.
type repStats struct {
	start      time.Time
	elapsed    time.Duration
	lat, lag   []int64 // sorted
	rtSum      int64
	ok, failed int64
	unsent     int64
	kinds      [numOps]int64
	lastDone   time.Time
	errs       []string
}

func (r *repStats) attempted() int64 { return r.ok + r.failed + r.unsent }

func (r *repStats) throughput() float64 { return float64(r.ok) / r.elapsed.Seconds() }

func (r *repStats) latencyMS(p float64) float64 {
	return float64(percentile(r.lat, p)) / 1e6
}

func mergeStats(start time.Time, elapsed time.Duration, per []*clientStats) *repStats {
	r := &repStats{start: start, elapsed: elapsed}
	for _, s := range per {
		r.lat = append(r.lat, s.lat...)
		r.lag = append(r.lag, s.lag...)
		r.rtSum += s.rtSum
		r.ok += s.ok
		r.failed += s.failed
		r.unsent += s.unsent
		for k := range r.kinds {
			r.kinds[k] += s.kinds[k]
		}
		if s.lastDone.After(r.lastDone) {
			r.lastDone = s.lastDone
		}
		r.errs = append(r.errs, s.firstErrs...)
	}
	slices.Sort(r.lat)
	slices.Sort(r.lag)
	return r
}

// mergeReps pools several reps into one.
func mergeReps(reps []*repStats) *repStats {
	out := &repStats{}
	for _, r := range reps {
		out.elapsed += r.elapsed
		out.lat = append(out.lat, r.lat...)
		out.lag = append(out.lag, r.lag...)
		out.rtSum += r.rtSum
		out.ok += r.ok
		out.failed += r.failed
		out.unsent += r.unsent
		for k := range out.kinds {
			out.kinds[k] += r.kinds[k]
		}
	}
	slices.Sort(out.lat)
	slices.Sort(out.lag)
	return out
}

// sampleCapacity sizes a client's sample slices for a stretch of dur, above
// the ~55k requests/s the fastest workload reached on two cores, so the
// measured loop does not grow a slice.
func sampleCapacity(dur time.Duration, clients int) int {
	return int(dur.Seconds()*70000)/clients + 1024
}

// run drives the clients through l and returns the merged stats. A closed
// loop sends each client's next op when its previous answer is checked; an
// open loop has the clients claim schedule entries in order, wait for each
// entry's due time and charge latency from it, so a stalled server shows as
// queueing rather than as fewer requests.
func (l load) run(clients []*client) *repStats {
	per := make([]*clientStats, len(clients))
	for i := range per {
		per[i] = newClientStats(sampleCapacity(l.dur, len(clients)))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(l.dur)
	// An overloaded open loop drains its backlog, but not forever: entries
	// still unsent this long after the schedule ends are abandoned and
	// counted as unsent.
	abandon := end.Add(2 * time.Second)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			if l.open() {
				// Precise waits need the thread's timer slack lowered, and
				// the slack is per thread: pin the worker to one.
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				setTimerSlack(1)
				defer setTimerSlack(0)
			}
			s := per[i]
			var ts stamps
			for {
				var o op
				if l.open() {
					idx := int(next.Add(1) - 1)
					if idx >= len(l.sched) {
						return
					}
					if time.Now().After(abandon) {
						s.unsent += int64(len(l.sched) - idx)
						next.Store(int64(len(l.sched)))
						return
					}
					ts.due = start.Add(l.sched[idx])
					waitUntil(ts.due)
					o = l.ops[idx]
				} else {
					ts.due = time.Now()
					if !ts.due.Before(end) {
						return
					}
					o = l.gens[i].next()
				}
				ts.ready = time.Now()
				err := c.do(o, &ts)
				s.record(o, &ts, err)
				if l.tr != nil && err == nil {
					l.tr.request(i, &ts)
				}
			}
		}(i, c)
	}
	wg.Wait()
	r := mergeStats(start, l.dur, per)
	if l.open() {
		// The open loop's work is done when its last answer lands.
		r.elapsed = max(l.dur, r.lastDone.Sub(start))
	}
	return r
}

// waitUntil sleeps until t. time.Sleep overshoots short sleeps by about a
// millisecond on Linux (the runtime's timer granularity), which would set
// the open loop's latency floor; below 2 ms the wait uses nanosleep, which
// with the calling thread's timer slack at 1 ns overshoots by about 5 us
// (50 us at the default slack).
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// setTimerSlack sets the calling thread's timer slack in ns (0 restores the
// default). Best effort: without it waits are only less precise.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}
