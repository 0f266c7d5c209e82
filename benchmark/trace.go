package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// Span names. A request's spans tile its interval: request is the root,
// from the due time to the checked answer; loadgen.wait covers due->ready
// (the open loop's wait for its slot and the sleep overshoot), http.roundtrip
// send->response (net/http, loopback and the whole server), and
// client.decode_check response->checked. The root's self time is the
// generator's request construction between ready and send. Replay spans are
// roots of their own, one per batch of direct calls into a layer.
const (
	spanRequest = iota
	spanWait
	spanRoundtrip
	spanDecode
	spanReplayPool
	spanReplayShard
	spanReplayCore
	spanReplayKeyed
	spanReplayCluster
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "loadgen.wait", "http.roundtrip", "client.decode_check",
	"replay.pool", "replay.shard", "replay.core", "replay.keyed", "replay.cluster",
}

// spanParent gives each span name's parent name, or -1 for a root.
var spanParent = [numSpanNames]int{
	-1, spanRequest, spanRequest, spanRequest, -1, -1, -1, -1, -1,
}

// selfTimedSpans are the span names the per-layer report gives self times
// for (metric span.<name>.self_us).
var selfTimedSpans = []int{spanRequest, spanWait, spanRoundtrip, spanDecode}

// span is one recorded interval; times are ns since the tracer's epoch.
type span struct {
	req        uint64
	name       uint8
	start, end int64
}

// tracer keeps spans in buffers allocated before the traced rep starts, one
// per writer, so recording is an append into reserved memory; spans are
// written out as JSONL when the run ends. A full buffer drops spans and
// counts them rather than growing.
type tracer struct {
	epoch   time.Time
	bufs    [][]span // one per client, plus one for the replays
	seq     []uint64
	dropped int64
}

func newTracer(writers, perWriter int) *tracer {
	t := &tracer{epoch: time.Now(), bufs: make([][]span, writers), seq: make([]uint64, writers)}
	for i := range t.bufs {
		t.bufs[i] = prefault(make([]span, 0, perWriter))
	}
	return t
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records one span for writer w; the caller owns buffer w.
func (t *tracer) add(w int, req uint64, name int, start, end time.Time) {
	if len(t.bufs[w]) == cap(t.bufs[w]) {
		t.dropped++
		return
	}
	t.bufs[w] = append(t.bufs[w], span{req: req, name: uint8(name), start: t.ns(start), end: t.ns(end)})
}

// newReq returns a request id unique across writers.
func (t *tracer) newReq(w int) uint64 {
	t.seq[w]++
	return uint64(w)<<40 | t.seq[w]
}

// request records the four spans of one answered request.
func (t *tracer) request(w int, ts *stamps) {
	id := t.newReq(w)
	t.add(w, id, spanRequest, ts.due, ts.done)
	t.add(w, id, spanWait, ts.due, ts.ready)
	t.add(w, id, spanRoundtrip, ts.send, ts.resp)
	t.add(w, id, spanDecode, ts.resp, ts.done)
}

func (t *tracer) spans() []span {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	return all
}

// selfTimes returns each span name's mean self time in ns and its count.
// A span's self time is its duration minus the part of it that its
// children's intervals cover. Spans sharing a request id must be adjacent,
// as the tracer records them.
func selfTimes(spans []span) (mean [numSpanNames]float64, count [numSpanNames]int64) {
	var sum [numSpanNames]float64
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		group := spans[lo:hi]
		lo = hi
		for _, s := range group {
			var kids [][2]int64
			for _, k := range group {
				if spanParent[k.name] == int(s.name) {
					kids = append(kids, [2]int64{max(k.start, s.start), min(k.end, s.end)})
				}
			}
			sum[s.name] += float64(s.end-s.start) - float64(covered(kids))
			count[s.name]++
		}
	}
	for i := range mean {
		if count[i] > 0 {
			mean[i] = sum[i] / float64(count[i])
		}
	}
	return mean, count
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		curE = max(curE, x[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeJSONL writes every span as one JSON object per line. A span's parent
// is implied by its name (spanParent), so lines do not repeat it.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Req     uint64 `json:"req"`
		Span    string `json:"span"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for _, s := range t.spans() {
		if err := enc.Encode(line{Req: s.req, Span: spanNames[s.name], StartNS: s.start, EndNS: s.end}); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
