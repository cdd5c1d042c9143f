package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client sends ops to one server over at most conns connections and checks
// every response. Reads whose response was once verified against the
// oracle are afterwards checked by comparing bytes with that response
// (falling back to the full check on any difference), which keeps the
// generator's own CPU use per request small and the same on every commit.
type client struct {
	hc           *http.Client
	base         string
	withRegistry bool

	mu       sync.Mutex
	verified map[int][]byte
}

func newClient(conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		verified: map[int][]byte{},
	}
}

// result is the outcome of one op.
type result struct {
	op      *op
	latency time.Duration // from due time (open loop) or send time (closed loop)
	version uint64        // the version a write was assigned
	err     error         // transport error, non-2xx, or a wrong answer
}

// do sends o and checks the response, measuring latency from t0.
func (c *client) do(o *op, t0 time.Time) result {
	req, err := http.NewRequest(o.method, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return result{op: o, err: err}
	}
	req.Header.Set("Content-Type", o.ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return result{op: o, latency: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := result{op: o, latency: time.Since(t0), err: err}
	if err != nil {
		return r
	}
	if o.write() {
		r.version, r.err = checkWrite(o, resp.StatusCode, body, c.withRegistry)
		return r
	}
	c.mu.Lock()
	seen := c.verified[o.pool]
	c.mu.Unlock()
	if resp.StatusCode == http.StatusOK && seen != nil && bytes.Equal(seen, body) {
		return r
	}
	if r.err = checkRead(o, resp.StatusCode, body); r.err == nil {
		c.mu.Lock()
		c.verified[o.pool] = body
		c.mu.Unlock()
	}
	return r
}

// openLoop sends the arrivals on their schedule from one dispatcher, queued
// to conns senders, and times each request from when it was due, so a
// stall delays — and is charged to — every request behind it. late holds,
// per arrival, how long after its due time the dispatcher released it.
func openLoop(c *client, arrivals []arrival, conns int) (results []result, late []time.Duration) {
	results = make([]result, len(arrivals))
	late = make([]time.Duration, len(arrivals))
	queue := make(chan int, len(arrivals)) // sized to the sends: never blocks the dispatcher
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				results[j] = c.do(arrivals[j].op, start.Add(arrivals[j].at))
			}
		}()
	}
	for j, a := range arrivals {
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		late[j] = time.Since(start.Add(a.at))
		queue <- j
	}
	close(queue)
	wg.Wait()
	return results, late
}

// closedLoop runs conns clients that each send their next op as soon as
// the previous one completes, for d, drawing ops from seq at *next onward
// (wrapping) and advancing *next past them. It returns every result and the
// time until the last in-flight request finished.
func closedLoop(c *client, seq []*op, next *int, conns int, d time.Duration) ([]result, time.Duration) {
	var pos atomic.Int64
	pos.Store(int64(*next))
	per := make([][]result, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < d {
				o := seq[int(pos.Add(1)-1)%len(seq)]
				per[i] = append(per[i], c.do(o, time.Now()))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	*next = int(pos.Load())
	var all []result
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, elapsed
}

// sendAll sends ops one at a time and fails on the first bad response: the
// setup path, where any failure makes the run meaningless.
func sendAll(c *client, ops []*op) ([]result, error) {
	out := make([]result, len(ops))
	for i, o := range ops {
		out[i] = c.do(o, time.Now())
		if out[i].err != nil {
			return nil, fmt.Errorf("setup: %w", out[i].err)
		}
	}
	return out, nil
}
