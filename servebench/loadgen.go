package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// requestTimeout bounds one request; a request that exceeds it fails.
const requestTimeout = 10 * time.Second

// sample is one request's timing as offsets from its phase's start. A
// closed-loop request is due when it is sent.
type sample struct {
	due, sent, done time.Duration
	ok              bool
	queries         int // top-k queries the request carried
}

// latencyMS is the request's latency from its due time; a failed request
// exceeds every latency limit.
func (s sample) latencyMS() float64 {
	if !s.ok {
		return math.MaxFloat64
	}
	return float64(s.done-s.due) / 1e6
}

// sender performs request i of a phase and reports how many top-k
// queries it carried and whether it succeeded.
type sender func(ctx context.Context, i int) (queries int, ok bool)

// openLoop sends n requests, request i due at start + i/rate, over at
// most conns concurrent requests. A request that finds every connection
// busy at its due time goes out late; its latency is still timed from
// when it was due, so a stall shows as lateness and tail latency, never
// as missing samples.
func openLoop(ctx context.Context, n int, rate float64, conns int, send sender) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				samples[i].due = due
				if wait := due - time.Since(start); wait > 0 {
					if !sleepCtx(ctx, wait) {
						continue // cancelled: the sample stays failed
					}
				}
				samples[i].sent = time.Since(start)
				q, ok := send(ctx, i)
				samples[i].done = time.Since(start)
				samples[i].ok, samples[i].queries = ok, q
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs conns callers, each sending its next request as soon
// as the previous one completes, until dur has passed or the stream of
// limit requests is exhausted. It returns the samples and the wall time
// from start until the last request completed.
func closedLoop(ctx context.Context, dur time.Duration, conns, limit int, send sender) ([]sample, time.Duration) {
	per := make([][]sample, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				s := sample{sent: time.Since(start)}
				s.due = s.sent
				s.queries, s.ok = send(ctx, i)
				s.done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// client drives the router's public HTTP API over at most conns
// keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req under requestTimeout and decodes a 200 JSON body into out.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// topk answers GET /topk?stats=1 for u.
func (c *client) topk(ctx context.Context, u int) (server.TopKResponse, error) {
	var resp server.TopKResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/topk?u=%d&k=%d&stats=1", u, topK), nil, &resp)
	if err == nil && (resp.Query != u || resp.Stats == nil) {
		err = fmt.Errorf("topk u=%d: malformed answer", u)
	}
	return resp, err
}

// batch answers POST /topk/batch with stats for us.
func (c *client) batch(ctx context.Context, us []int) (server.BatchResponse, error) {
	body, err := json.Marshal(server.BatchRequest{Queries: us, K: topK, Stats: true})
	if err != nil {
		return server.BatchResponse{}, err
	}
	var resp server.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/topk/batch", body, &resp); err != nil {
		return resp, err
	}
	if len(resp.Results) != len(us) {
		return resp, fmt.Errorf("batch: %d answers for %d queries", len(resp.Results), len(us))
	}
	for i, r := range resp.Results {
		if r.Query != us[i] || r.Stats == nil {
			return resp, fmt.Errorf("batch: malformed answer %d", i)
		}
	}
	return resp, nil
}

// answers records the digest of every routed answer by query vertex, so
// the correctness gate can compare each distinct query with a
// single-node reference after the timed phases.
type answers struct {
	mu        sync.Mutex
	got       map[int]digest
	conflicts map[int]bool // vertices two routed answers disagreed on
}

func newAnswers() *answers {
	return &answers{got: make(map[int]digest), conflicts: make(map[int]bool)}
}

func (a *answers) note(u int, d digest) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.got[u]; ok && prev != d {
		a.conflicts[u] = true
	}
	a.got[u] = d
}

// topkSender sends the phase's i-th query of st as GET /topk.
func topkSender(c *client, st *stream, offset int, ans *answers) sender {
	return func(ctx context.Context, i int) (int, bool) {
		u, ok := st.query(offset + i)
		if !ok {
			return 0, false
		}
		resp, err := c.topk(ctx, u)
		if err != nil {
			return 1, false
		}
		ans.note(u, digestJSON(resp.Results, resp.Stats))
		return 1, true
	}
}

// batchSender sends the phase's i-th batch of st as POST /topk/batch.
func batchSender(c *client, st *stream, offset int, ans *answers) sender {
	return func(ctx context.Context, i int) (int, bool) {
		us := st.queryBatch(offset + i)
		resp, err := c.batch(ctx, us)
		if err != nil {
			return len(us), false
		}
		for j, r := range resp.Results {
			ans.note(us[j], digestJSON(r.Results, r.Stats))
		}
		return len(us), true
	}
}
