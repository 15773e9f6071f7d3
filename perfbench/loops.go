package main

import (
	"bytes"
	"crypto/sha256"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what a client recorded for one request.
type opResult struct {
	done bool
	code int
	// lat runs from send to answer in a closed loop and from the due
	// time to the answer in an open loop; late is send minus due.
	lat, late  time.Duration
	start, end time.Time
	// sum is the SHA-256 of the body (routes answers, for the oracle
	// comparison).
	sum [32]byte
	// versions are the weightVersion of approaches A–D, approaches the
	// number of approaches in the answer (routes only).
	versions   [4]uint64
	approaches int
	// selHit and restricted echo the matrix answer's fields.
	selHit, restricted bool
	// body is kept only for the matrix tables the gate samples.
	body []byte
}

// closedLoop runs clients goroutines, each sending ops[i] for the next
// unclaimed i from *next as soon as its previous answer is in, until d
// has passed or the n ops run out. It returns when every client has
// stopped; the returned duration runs until then.
func closedLoop(clients int, d time.Duration, next *int, n int, send func(i int)) time.Duration {
	var ctr atomic.Int64
	ctr.Store(int64(*next))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(ctr.Add(1) - 1)
				if i >= n {
					return
				}
				send(i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	*next = min(int(ctr.Load()), n)
	return elapsed
}

// openLoop sends op i at start+due[i]-due[from] for every i in
// [from, to), from clients goroutines: a request due while every client
// is busy is sent late, and the lateness counts in its latency.
func openLoop(clients int, start time.Time, due []time.Duration, from, to int, send func(i int, due time.Time)) {
	var ctr atomic.Int64
	ctr.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(ctr.Add(1) - 1)
				if i >= to {
					return
				}
				at := start.Add(due[i] - due[from])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				send(i, at)
			}
		}()
	}
	wg.Wait()
}

// parseRoutes fills the routes-specific fields of r from an answer body
// without decoding the whole document: the four approaches' labels and
// weight versions.
func parseRoutes(r *opResult, body []byte) {
	r.sum = sha256.Sum256(body)
	key := []byte(`"weightVersion":`)
	rest := body
	for r.approaches = 0; r.approaches < len(r.versions); r.approaches++ {
		i := bytes.Index(rest, key)
		if i < 0 {
			break
		}
		rest = rest[i+len(key):]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		v, err := strconv.ParseUint(string(rest[:j]), 10, 64)
		if err != nil {
			break
		}
		r.versions[r.approaches] = v
	}
}

// mixedVersions reports whether approaches B, C and D, which all plan on
// the public weight store, answered under different weight versions.
func (r *opResult) mixedVersions() bool {
	return r.versions[1] != r.versions[2] || r.versions[2] != r.versions[3]
}
