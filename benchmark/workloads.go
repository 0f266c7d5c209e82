package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// opKind is one client-visible operation of the served objects.
type opKind uint8

const (
	opCounterInc opKind = iota
	opCounterRead
	opMaxregWrite
	opMaxregRead
	opGSetAdd
	opGSetHas
	opSnapUpdate
	opSnapScan
	opMsnapUpdate
	opMsnapScan
	opMapInc
	opMapMax
	opMapGet
	opKGSetAdd
	opKGSetHas
	numOps
)

// endpoints names the slserve per-endpoint duration histograms
// (slserve_endpoint_<name>_duration_ns) of the endpoints the workloads drive,
// in the order the per-layer report prints them.
var endpoints = []string{
	"counter_inc", "counter", "maxreg", "gset", "snapshot", "msnapshot",
	"kgset_add", "kgset_has", "map_inc", "map_max", "map_get",
}

// family is a key family of the keyed objects. Families never share keys,
// so a map key is only ever written as one kind and no kind conflict (a 400
// by contract) can arise.
type family uint8

const (
	famNone   family = iota
	famInc           // monotone-map counter keys
	famMax           // monotone-map max-register keys
	famSet           // keyed-gset keys that are added
	famAbsent        // keyed-gset keys that are never added
	numFamilies
)

var familyPrefix = [numFamilies]string{famInc: "i", famMax: "m", famSet: "s", famAbsent: "a"}

// op is one generated request.
type op struct {
	kind opKind
	fam  family
	key  int32 // key index within fam
	val  int64 // maxreg/snapshot/map-max value or gset element
}

// Value domains of the generated writes. They match slserve -attack's
// (values below 1024, gset elements below 256), so the wide unary max
// register and the bitmap gset cost what they cost there.
const (
	valueDomain = 1024
	gsetDomain  = 256
	mapMaxLimit = 1 << 20
	zipfS       = 1.1
)

// mixEntry is one weighted line of a mix; weights of a mix sum to 100.
type mixEntry struct {
	kind   opKind
	fam    family
	weight int
}

// workload is one traffic shape the benchmark drives.
type workload struct {
	name string
	why  string
	// mix draws every op; keys is the key count per keyed family.
	mix  []mixEntry
	keys int
	// rate > 0 selects the open loop at rate requests/s instead of the
	// closed loop; routed puts slserve -frontend over two backends in front.
	rate   float64
	routed bool
}

// denseMix is slserve -attack's default mix: 50/50 read/write over the five
// constant-cost dense objects.
var denseMix = []mixEntry{
	{opCounterInc, famNone, 10}, {opCounterRead, famNone, 10},
	{opMaxregWrite, famNone, 10}, {opMaxregRead, famNone, 10},
	{opGSetAdd, famNone, 10}, {opGSetHas, famNone, 10},
	{opSnapUpdate, famNone, 10}, {opSnapScan, famNone, 10},
	{opMsnapUpdate, famNone, 10}, {opMsnapScan, famNone, 10},
}

var workloads = []workload{
	{
		name: "dense-closed",
		why:  "serving-path cost: every dense engine on the path, coalescer and lane pool idle at 2 in flight",
		mix:  denseMix,
	},
	{
		name: "dense-open",
		why:  "queueing and tail latency: Poisson arrivals at a fixed rate, latency charged from each due time",
		mix:  denseMix,
		rate: 14000,
	},
	{
		name: "keyed-closed",
		why:  "large working set and directory lookups on resident keyed tables; the dense engines are idle",
		mix: []mixEntry{
			{opMapInc, famInc, 40}, {opMapMax, famMax, 10},
			{opMapGet, famInc, 24}, {opMapGet, famMax, 6},
			{opKGSetAdd, famSet, 10},
			{opKGSetHas, famSet, 5}, {opKGSetHas, famAbsent, 5},
		},
		keys: 20000,
	},
	{
		name: "routed-closed",
		why:  "the routing tier: proxy hop, ownership table and acked ledgers, plus a kill -9 failover in the traced run",
		mix: []mixEntry{
			{opCounterInc, famNone, 15}, {opCounterRead, famNone, 10},
			{opMaxregWrite, famNone, 10}, {opMaxregRead, famNone, 10},
			{opGSetAdd, famNone, 10}, {opGSetHas, famNone, 5},
			{opMapInc, famInc, 15}, {opMapGet, famInc, 10},
			{opKGSetAdd, famSet, 10},
			{opKGSetHas, famSet, 3}, {opKGSetHas, famAbsent, 2},
		},
		keys:   5000,
		routed: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// keyed reports whether the workload drives the keyed objects, whose key
// families setup preloads.
func (w workload) keyed() bool { return w.keys > 0 }

// streamSeed derives an independent, reproducible RNG seed for one named
// stream (a client's op sequence, an arrival schedule, the preload order)
// of one workload run.
func streamSeed(seed int64, wl, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, wl, stream)
	return int64(h.Sum64() >> 1)
}

// opGen draws a workload's op sequence from one seeded stream.
type opGen struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	mix   []mixEntry
	keys  int
	total int
}

func newOpGen(w workload, seed int64, stream string) *opGen {
	rng := rand.New(rand.NewSource(streamSeed(seed, w.name, stream)))
	g := &opGen{rng: rng, mix: w.mix, keys: w.keys}
	for _, e := range w.mix {
		g.total += e.weight
	}
	if w.keys > 1 {
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(w.keys-1))
	}
	return g
}

func (g *opGen) next() op {
	r := g.rng.Intn(g.total)
	e := g.mix[len(g.mix)-1]
	for _, m := range g.mix {
		if r < m.weight {
			e = m
			break
		}
		r -= m.weight
	}
	o := op{kind: e.kind, fam: e.fam}
	switch e.kind {
	case opMaxregWrite, opSnapUpdate, opMsnapUpdate:
		o.val = g.rng.Int63n(valueDomain)
	case opGSetAdd, opGSetHas:
		o.val = g.rng.Int63n(gsetDomain)
	case opMapMax:
		o.val = g.rng.Int63n(mapMaxLimit)
	}
	switch e.fam {
	case famInc, famMax, famSet:
		o.key = int32(g.zipf.Uint64())
	case famAbsent:
		o.key = int32(g.rng.Intn(g.keys))
	}
	return o
}

// keyNames holds the key strings of every family, built once per run.
type keyNames [numFamilies][]string

func newKeyNames(n int) *keyNames {
	var k keyNames
	for f := famInc; f < numFamilies; f++ {
		k[f] = make([]string, n)
		for i := range k[f] {
			k[f][i] = fmt.Sprintf("%s%05d", familyPrefix[f], i)
		}
	}
	return &k
}

// preloadOps is the setup sequence of a keyed workload: one write per key of
// every written family, in a seeded order, so every measured op runs against
// resident keys and rehash growth lands in setup.
func preloadOps(w workload, seed int64) []op {
	var ops []op
	writes := map[family]opKind{}
	for _, e := range w.mix {
		switch e.kind {
		case opMapInc, opMapMax, opKGSetAdd:
			writes[e.fam] = e.kind
		}
	}
	for f := famInc; f < numFamilies; f++ {
		kind, ok := writes[f]
		if !ok {
			continue
		}
		for i := 0; i < w.keys; i++ {
			ops = append(ops, op{kind: kind, fam: f, key: int32(i)})
		}
	}
	rng := rand.New(rand.NewSource(streamSeed(seed, w.name, "preload")))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// poissonSchedule draws the open loop's due offsets covering dur at rate
// requests per second: exponential gaps from one seeded stream.
func poissonSchedule(rate float64, dur time.Duration, seed int64, wl, stream string) []time.Duration {
	rng := rand.New(rand.NewSource(streamSeed(seed, wl, stream)))
	offsets := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	return offsets
}
