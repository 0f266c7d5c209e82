package main

// The keyed universe's HTTP surface: /kgset/* serves the hashed grow-only
// set over string keys, /map/* the strongly-linearizable monotone map
// (internal/keyed). Both objects grow their bucket tables on demand — a
// write refused with ErrFull doubles the bucket count through the
// flip-after-migrate rehash and retries, so clients only ever see a slot
// 503 once the growth cap itself is spent.
//
// Routing: the keyspace is partitioned by keyedPartition (fnv-1a hash mod
// keyPartitions — the identical function the frontend routes by, shared
// because both tiers live in this package), and each partition carries its
// own ownership fence, so a cluster handoff moves one keyed partition
// without fencing the rest.
//
// Error contract (the uniform writeErr shape everywhere):
//
//	400  malformed key/delta/value, or the key is bound to the other kind
//	404  /map/get of a key never written
//	503  per-(key, lane) budget spent, or bucket slots exhausted at the
//	     growth cap — both non-retryable: retrying cannot mint capacity

import (
	"errors"
	"fmt"
	"net/http"

	"stronglin"
)

// keyPartitions is how many routing partitions the keyed keyspace splits
// into: partition = KeyedHash(key) % keyPartitions. The frontend owns each
// partition independently (rendezvous hashing over the live view), and the
// backend fences each independently. Shared by both tiers — they are this
// same binary — so a key can never route to one partition and fence under
// another.
const keyPartitions = 4

// kmaxKeyLen caps client-supplied keys. Keys are stored in directory
// entries, compared on every lookup and ride in query strings; an unbounded
// key is an allocation a single request controls.
const kmaxKeyLen = 128

func keyedPartition(key string) int {
	return int(stronglin.KeyedHash(key) % keyPartitions)
}

// queryKey extracts and validates the k parameter.
func queryKey(q query) (string, error) {
	key := q.Get("k")
	if key == "" {
		return "", errMissingKey
	}
	if len(key) > kmaxKeyLen {
		return "", errKeyTooLong
	}
	return key, nil
}

// queryKey's 400 reasons, built once.
var (
	errMissingKey = errors.New(`missing query parameter "k"`)
	errKeyTooLong = fmt.Errorf("key longer than %d bytes", kmaxKeyLen)
)

// writeOpErr maps an engine step's typed errors onto the uniform error
// shape. None are retryable: the clock's budget is terminal, an unknown key
// stays unknown until someone writes it, a kind conflict is the client's
// contract violation, and the budget/slot exhaustions survive any retry
// (growth already ran).
func (s *server) writeOpErr(w *respWriter, err error) {
	switch {
	case errors.Is(err, errClockSpent):
		s.clockRejects.Inc()
		s.unavailable(w, http.StatusServiceUnavailable, "clock capacity exhausted: the Algorithm 1 reference budget is terminal", false)
	case errors.Is(err, stronglin.ErrKeyedUnknownKey):
		writeErr(w, http.StatusNotFound, "unknown key", false, 0)
	case errors.Is(err, stronglin.ErrKeyedKindMismatch):
		writeErr(w, http.StatusBadRequest, "key is bound to the other kind (counter vs max)", false, 0)
	case errors.Is(err, stronglin.ErrKeyedBudget):
		writeErr(w, http.StatusServiceUnavailable, "per-lane field budget exhausted for this key", false, 0)
	case errors.Is(err, stronglin.ErrKeyedFull):
		writeErr(w, http.StatusServiceUnavailable, "bucket slots exhausted at the growth cap", false, 0)
	case errors.Is(err, stronglin.ErrKeyedRange):
		writeErr(w, http.StatusBadRequest, "delta or value outside the field range", false, 0)
	default:
		writeErr(w, http.StatusInternalServerError, err.Error(), false, 0)
	}
}

// growFull runs op, and on ErrFull doubles the object's bucket table (the
// flip-after-migrate rehash) and retries, until op stops failing with
// ErrFull or growth itself refuses (the cap, or an unsplittable hash
// clump). Terminates: the bucket count strictly doubles per round, so grow
// errors out at the cap after O(log maxBuckets) rounds. Racing growers are
// safe — Rehash to a not-larger count is a no-op.
func growFull(op func() error, grow func() error) error {
	err := op()
	for errors.Is(err, stronglin.ErrKeyedFull) {
		if grow() != nil {
			return err
		}
		err = op()
	}
	return err
}
