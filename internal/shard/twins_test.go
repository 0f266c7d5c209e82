package shard

import "stronglin/internal/prim"

// readSpin is the unhelped lock-free read — epoch-validated collect with
// unbounded retries, no pressure, no adoption — kept exclusively for the
// progress witness: under the single-writer storm schedule its retry count
// (and so the reader's own steps) grows without bound, which is exactly the
// starvation the helping path closes. Its returned values carry the full
// epoch-validation guarantee; only progress differs.
func (c *Counter) readSpin(t prim.Thread) int64 {
	e := c.epoch.FetchAddInt(t, 0)
	for {
		v := c.readSingleCollect(t)
		e2 := c.epoch.FetchAddInt(t, 0)
		if e2 == e {
			return v
		}
		e = e2
	}
}
