package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
)

// finalChecks reads every object back once the load has stopped. With exact
// set (no request of the run failed, so every issued write was acked), each
// object must equal exactly what was acked; otherwise a failed write may or
// may not have landed, and each read must lie between the acked and the
// issued history. It returns one message per violation.
func (r *run) finalChecks(exact bool) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	m, c := r.m, r.clients[0]

	var v struct {
		Value *int64  `json:"value"`
		Elems []int64 `json:"elems"`
	}
	if _, err := c.getJSON("/counter", &v); err != nil || v.Value == nil {
		fail("final /counter: %v", err)
	} else if acked, issued := m.counterAcked.Load(), m.counterIssued.Load(); (exact && *v.Value != acked) || *v.Value < acked || *v.Value > issued {
		fail("final /counter = %d, acked %d incs (issued %d)", *v.Value, acked, issued)
	}
	v.Value = nil
	if _, err := c.getJSON("/maxreg", &v); err != nil || v.Value == nil {
		fail("final /maxreg: %v", err)
	} else if acked, issued := max(m.maxAcked.Load()-1, 0), max(m.maxIssued.Load()-1, 0); (exact && *v.Value != acked) || *v.Value < acked || *v.Value > issued {
		fail("final /maxreg = %d, max acked %d (issued %d)", *v.Value, acked, issued)
	}
	if _, err := c.getJSON("/gset", &v); err != nil {
		fail("final /gset: %v", err)
	} else {
		for x := int64(0); x < gsetDomain; x++ {
			in := slices.Contains(v.Elems, x)
			acked, issued := m.gsetAcked[x].Load(), m.gsetIssued[x].Load()
			if (acked && !in) || (in && !issued) || (exact && in != acked) {
				fail("final /gset: element %d present=%v, acked=%v issued=%v", x, in, acked, issued)
			}
		}
	}
	if r.w.keyed() {
		bad = append(bad, r.keyedChecks(exact)...)
	}
	if r.w.routed && exact {
		bad = append(bad, r.ledgerChecks()...)
	}
	return bad
}

// keyedChecks asks /kgset/has for every added key and a sample of absent
// ones, and /map/get for the hottest and a seeded sample of map keys.
func (r *run) keyedChecks(exact bool) []string {
	m, keys := r.m, r.keys
	type probe struct {
		fam family
		key int
	}
	var probes []probe
	for i := 0; i < r.w.keys; i++ {
		probes = append(probes, probe{famSet, i})
	}
	rng := rand.New(rand.NewSource(streamSeed(r.seed, r.w.name, "checks")))
	for _, f := range []family{famAbsent, famInc, famMax} {
		for i := 0; i < min(32, r.w.keys); i++ {
			probes = append(probes, probe{f, i}) // the Zipf-hottest keys
		}
		for i := 0; i < 256; i++ {
			probes = append(probes, probe{f, rng.Intn(r.w.keys)})
		}
	}
	return sweep(r.clients, len(probes), func(c *client, i int) error {
		p := probes[i]
		k := keys[p.fam][p.key]
		var ans answer
		if p.fam == famSet || p.fam == famAbsent {
			if _, err := c.getJSON("/kgset/has?k="+k, &ans); err != nil || ans.Member == nil {
				return fmt.Errorf("final /kgset/has?k=%s: %v", k, err)
			}
			acked, issued := false, false
			if p.fam == famSet {
				acked, issued = m.setAcked[p.key].Load(), m.setIssued[p.key].Load()
			}
			if (acked && !*ans.Member) || (*ans.Member && !issued) || (exact && *ans.Member != acked) {
				return fmt.Errorf("final /kgset/has?k=%s = %v, acked=%v issued=%v", k, *ans.Member, acked, issued)
			}
			return nil
		}
		status, err := c.getJSON("/map/get?k="+k, &ans)
		if err != nil {
			return fmt.Errorf("final /map/get?k=%s: %v", k, err)
		}
		acked, issued := m.incAcked[p.key].Load(), m.incIssued[p.key].Load()
		if p.fam == famMax {
			// Encoded v+1; decode to the value, -1 meaning none.
			acked, issued = m.mkAcked[p.key].Load()-1, m.mkIssued[p.key].Load()-1
		}
		none := int64(0)
		if p.fam == famMax {
			none = -1
		}
		if status == http.StatusNotFound {
			if acked != none {
				return fmt.Errorf("final /map/get?k=%s: 404 after acked writes", k)
			}
			return nil
		}
		if status != http.StatusOK || ans.Value == nil {
			return fmt.Errorf("final /map/get?k=%s: status %d", k, status)
		}
		got := *ans.Value
		if got < acked || got > issued || (exact && got != acked) {
			return fmt.Errorf("final /map/get?k=%s = %d, acked %d issued %d", k, got, acked, issued)
		}
		return nil
	})
}

// ledgerChecks compares the frontend's acked ledgers with what the clients
// saw acked. Only meaningful when nothing failed: a failed request may still
// have been acked inside the frontend.
func (r *run) ledgerChecks() []string {
	var st struct {
		CounterLedger   int64 `json:"counter_ledger"`
		MaxregLedger    int64 `json:"maxreg_ledger"`
		GSetLedgerSize  int   `json:"gset_ledger_size"`
		KGSetLedgerKeys int   `json:"kgset_ledger_keys"`
		KMapLedgerKeys  int   `json:"kmap_ledger_keys"`
	}
	if _, err := r.clients[0].getJSON("/stats", &st); err != nil {
		return []string{fmt.Sprintf("frontend /stats: %v", err)}
	}
	m := r.m
	var gsetAcked, setAcked, mapAcked int
	for i := range m.gsetAcked {
		gsetAcked += int(b2i(m.gsetAcked[i].Load()))
	}
	for i := range m.setAcked {
		setAcked += int(b2i(m.setAcked[i].Load()))
		if m.incAcked[i].Load() > 0 || m.mkAcked[i].Load() > 0 {
			mapAcked++
		}
	}
	var bad []string
	check := func(name string, ledger, acked int64) {
		if ledger != acked {
			bad = append(bad, fmt.Sprintf("frontend %s = %d, clients saw %d acked", name, ledger, acked))
		}
	}
	check("counter_ledger", st.CounterLedger, m.counterAcked.Load())
	check("maxreg_ledger", st.MaxregLedger, max(m.maxAcked.Load()-1, 0))
	check("gset_ledger_size", int64(st.GSetLedgerSize), int64(gsetAcked))
	check("kgset_ledger_keys", int64(st.KGSetLedgerKeys), int64(setAcked))
	check("kmap_ledger_keys", int64(st.KMapLedgerKeys), int64(mapAcked))
	return bad
}

// sweep runs check(c, i) for i in [0, n) across the clients, each client
// claiming the next index, and returns the first violations found.
func sweep(clients []*client, n int, check func(c *client, i int) error) []string {
	var next atomic.Int64
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := check(c, i); err != nil {
					mu.Lock()
					if len(bad) < 10 {
						bad = append(bad, err.Error())
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return bad
}
