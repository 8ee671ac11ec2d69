package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's concurrency: one goroutine and one
// connection per CPU, so the generator never outnumbers the cores it
// shares with the servers.
func clients() int { return runtime.NumCPU() }

// client is one load-generator connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// close drops the client's idle connection.
func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// closedLoop runs one goroutine per client, each sending its next
// request as soon as the previous one completed, until dur has elapsed.
// Requests are numbered from next, so a run's requests are a prefix of
// the stream. It returns the completion offsets of all requests.
func closedLoop(ctx context.Context, n int, dur time.Duration, next *atomic.Int64, send func(c int, i int64)) []time.Duration {
	start := time.Now()
	done := make([][]time.Duration, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < dur {
				send(c, next.Add(1)-1)
				done[c] = append(done[c], time.Since(start))
			}
		}()
	}
	wg.Wait()
	return slices.Concat(done...)
}

// windowRate splits [0, dur) into windows of width win and returns the
// median completions per second over the windows: a throughput that a
// short stall of the shared host moves less than the overall mean.
func windowRate(done []time.Duration, dur, win time.Duration) float64 {
	counts := make([]float64, max(int(dur/win), 1))
	for _, d := range done {
		if w := int(d / win); w < len(counts) {
			counts[w]++
		}
	}
	return median(counts) / win.Seconds()
}

// openLoop sends up to n requests on a fixed schedule, request i due at
// i/rate after the start, from a fixed set of client goroutines, and
// stops sending once stop is closed (a nil stop never closes). Each
// request is timed from when it was due, not from when a free client
// sent it, so a stall is charged to every request queued behind it. It
// returns each sent request's latency and how late it was sent, in
// milliseconds, in request order.
func openLoop(ctx context.Context, clients, n int, rate float64, stop <-chan struct{}, send func(c, i int)) (lat, late []float64) {
	lats := make([]float64, n)
	lates := make([]float64, n)
	sent := make([]bool, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if !waitUntil(ctx, stop, timer, due) {
					return
				}
				lates[i] = millis(time.Since(due))
				send(c, i)
				lats[i] = millis(time.Since(due))
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	for i := range sent {
		if sent[i] {
			lat, late = append(lat, lats[i]), append(late, lates[i])
		}
	}
	return lat, late
}

// coarseWake is how long before a request is due an open-loop client
// stops waiting on a runtime timer and sleeps the rest on the kernel's
// timer. A runtime timer wakes an idle process up to a millisecond
// late, longer than a search request takes, and the open loop would
// charge that delay to every request.
const coarseWake = 2 * time.Millisecond

// waitUntil blocks until due and reports whether the open loop may
// still send: false once ctx is done or stop is closed.
func waitUntil(ctx context.Context, stop <-chan struct{}, timer *time.Timer, due time.Time) bool {
	if d := time.Until(due) - coarseWake; d > 0 {
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			return false
		case <-stop:
			return false
		}
	}
	sleepFine(time.Until(due))
	select {
	case <-stop:
		return false
	default:
		return ctx.Err() == nil
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errThinTail reports a percentile whose tail holds too few samples to
// estimate it.
var errThinTail = errors.New("fewer than ten samples above the percentile")

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// a percentile with fewer than ten samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	s := slices.Sorted(slices.Values(xs))
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	if len(s)-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", p, len(s), errThinTail)
	}
	return s[rank-1], nil
}

// median returns the median of xs (0 for none): the middle sample, or
// the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sum returns the sum of xs, in order.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
