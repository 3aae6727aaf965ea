package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	simrank "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// The traced run replays the workload's stream through each layer's
// public entry point, one rung at a time with a single caller:
//
//	graph  -> Graph.UndirectedBallInto, WalkTable.StepWalks
//	core   -> Snapshot.TopKStatsCtx
//	shards -> Snapshot.TopKShardAppendCtx per shard, MergeShardTopKScratch
//	          (and TopKShardBatchAppendCtx per shard for batches)
//	wire   -> AppendTopKResp, Frame.Parse + Frame.TopKResp per fragment
//	server -> Handler.ServeHTTP /topk on a stand-alone handler
//	router -> GET /topk and POST /topk/batch through a routed topology
//
// Every rung runs on freshly loaded indexes, so an earlier rung never
// warms the caches of a later one. A layer's own cost is its rung's time
// minus the rung below it, per query.

// errMismatch marks a traced rung whose answer differs from the core
// rung's single-node answer.
var errMismatch = errors.New("answer differs from the single-node answer")

// coreParams is servedOptions as the core package sees it.
func coreParams() core.Params {
	return core.Params{CacheBytes: cacheBytes, Seed: 1}
}

// ladder holds one traced replay and what it measured.
type ladder struct {
	path    string // the v3 snapshot every rung loads afresh
	queries []int
	batches [][]int
	tr      *tracer
	m       map[string]float64

	// Per-query results of the lower rungs, for the rungs above.
	want    []digest             // core answers
	coreUS  []float64            // core.topk time per query
	maxScan []float64            // slowest shard scan per query
	frags   [][][]core.ShardCand // [query][shard] fragments
}

// freshSnapshot mmap-loads a core snapshot with empty caches.
func (l *ladder) freshSnapshot() (*core.Snapshot, error) {
	e, _, err := core.LoadIndexMmap(l.path, coreParams())
	if err != nil {
		return nil, err
	}
	s := e.Seal()
	if st := s.PrologStats(); st.Hits != 0 || st.Entries != 0 {
		return nil, fmt.Errorf("fresh snapshot starts with %d prolog hits", st.Hits)
	}
	return s, nil
}

// freshIndex is freshSnapshot through the public package.
func (l *ladder) freshIndex() (*simrank.Index, error) {
	ix, _, err := loadFresh(l.path)
	if err != nil {
		return nil, err
	}
	if st := ix.PrologStats(); st.Hits != 0 || st.Entries != 0 {
		return nil, fmt.Errorf("fresh index starts with %d prolog hits", st.Hits)
	}
	return ix, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// run climbs every rung and fills l.m with the per-layer metrics.
func (l *ladder) run(ctx context.Context) error {
	l.m = make(map[string]float64)
	for _, rung := range []func(context.Context) error{
		l.graphRung, l.coreRung, l.shardRung, l.batchScanRung, l.wireRung,
		l.serverRung, l.routerRung, l.routerBatchRung,
	} {
		if err := rung(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) graphRung(ctx context.Context) error {
	s, err := l.freshSnapshot()
	if err != nil {
		return err
	}
	g, wt, p := s.Graph(), s.WalkTable(), s.Params()
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	var ball []uint32
	pos := make([]uint32, p.RAlpha)
	lane := make([]uint64, 2*min(p.RAlpha, graph.StepLane))
	var ballUS, ballN, walkUS []float64
	truncated, steps, walkNS := 0, 0, time.Duration(0)
	for q, u := range l.queries {
		id := l.tr.begin(q, 0, "graph.ball")
		var trunc bool
		ball, trunc = g.UndirectedBallInto(uint32(u), p.DMax, p.BallBudget, dist, ball[:0])
		ballUS = append(ballUS, us(l.tr.end(id)))
		ballN = append(ballN, float64(len(ball)))
		if trunc {
			truncated++
		}
		for _, v := range ball {
			dist[v] = graph.Unreachable
		}

		for i := range pos {
			pos[i] = uint32(u)
		}
		r := rng.New(rng.Mix(uint64(u)) ^ p.Seed)
		id = l.tr.begin(q, 0, "graph.walk")
		alive := len(pos)
		for t := 0; t < p.T && alive > 0; t++ {
			steps += alive
			alive = wt.StepWalks(r, pos, lane)
		}
		d := l.tr.end(id)
		walkUS = append(walkUS, us(d))
		walkNS += d
	}
	l.m["graph.ball_us"] = median(ballUS)
	l.m["graph.ball_vertices"] = mean(ballN)
	l.m["graph.ball_truncated_frac"] = float64(truncated) / float64(len(l.queries))
	l.m["graph.walk_us"] = median(walkUS)
	l.m["graph.walk_ns_per_step"] = float64(walkNS) / float64(steps)
	return ctx.Err()
}

func (l *ladder) coreRung(ctx context.Context) error {
	s, err := l.freshSnapshot()
	if err != nil {
		return err
	}
	var cand, refined, pBound, pRough []float64
	for q, u := range l.queries {
		id := l.tr.begin(q, 0, "core.topk")
		res, st, err := s.TopKStatsCtx(ctx, uint32(u), topK)
		d := l.tr.end(id)
		if err != nil {
			return err
		}
		l.coreUS = append(l.coreUS, us(d))
		l.want = append(l.want, digestScored(res, st))
		cand = append(cand, float64(st.Candidates))
		refined = append(refined, float64(st.Refined))
		pBound = append(pBound, float64(st.PrunedByBound))
		pRough = append(pRough, float64(st.PrunedByRough))
	}
	l.m["core.topk_us"] = median(l.coreUS)
	l.m["core.candidates"] = mean(cand)
	l.m["core.refined"] = mean(refined)
	l.m["core.pruned_bound"] = mean(pBound)
	l.m["core.pruned_rough"] = mean(pRough)
	return nil
}

func digestScored(res []core.Scored, st core.QueryStats) digest {
	return digestOf(len(res), func(i int) (int, float64) { return int(res[i].V), res[i].Score },
		[4]int{st.Candidates, st.PrunedByBound, st.PrunedByRough, st.Refined})
}

// shardSnapshots loads one fresh snapshot per shard with its range.
func (l *ladder) shardSnapshots() ([]*core.Snapshot, [][2]uint32, error) {
	snaps := make([]*core.Snapshot, numShards)
	ranges := make([][2]uint32, numShards)
	for i := range snaps {
		s, err := l.freshSnapshot()
		if err != nil {
			return nil, nil, err
		}
		lo, hi := shard.Range(i, numShards, s.Graph().N())
		snaps[i], ranges[i] = s, [2]uint32{uint32(lo), uint32(hi)}
	}
	return snaps, ranges, nil
}

func (l *ladder) shardRung(ctx context.Context) error {
	snaps, ranges, err := l.shardSnapshots()
	if err != nil {
		return err
	}
	theta := snaps[0].Params().Theta
	var ms core.MergeScratch
	var scanUS, mergeUS []float64
	scanSum, coreSum := 0.0, 0.0
	for q, u := range l.queries {
		root := l.tr.begin(q, 0, "core.shards")
		frags := make([][]core.ShardCand, numShards)
		slowest := 0.0
		for i, s := range snaps {
			id := l.tr.begin(q, root, "core.shard_scan")
			frag, _, err := s.TopKShardAppendCtx(ctx, uint32(u), ranges[i][0], ranges[i][1], nil)
			d := us(l.tr.end(id))
			if err != nil {
				return err
			}
			frags[i] = frag
			scanUS = append(scanUS, d)
			scanSum += d
			slowest = max(slowest, d)
		}
		id := l.tr.begin(q, root, "core.merge")
		res, st := core.MergeShardTopKScratch(topK, theta, frags, &ms)
		mergeUS = append(mergeUS, us(l.tr.end(id)))
		l.tr.end(root)
		if digestScored(res, st) != l.want[q] {
			return fmt.Errorf("%w: shard merge for u=%d", errMismatch, u)
		}
		coreSum += l.coreUS[q]
		l.maxScan = append(l.maxScan, slowest)
		l.frags = append(l.frags, frags)
	}
	l.m["core.shard_scan_us"] = median(scanUS)
	l.m["core.shard_amplification"] = scanSum / coreSum
	l.m["core.merge_us"] = median(mergeUS)
	return nil
}

func (l *ladder) batchScanRung(ctx context.Context) error {
	snaps, ranges, err := l.shardSnapshots()
	if err != nil {
		return err
	}
	var perQuery []float64
	for b, batch := range l.batches {
		us32 := make([]uint32, len(batch))
		for i, u := range batch {
			us32[i] = uint32(u)
		}
		frags := make([][]core.ShardCand, len(batch))
		sts := make([]core.QueryStats, len(batch))
		for i, s := range snaps {
			id := l.tr.begin(len(l.queries)+b, 0, "core.shard_batch")
			err := s.TopKShardBatchAppendCtx(ctx, us32, ranges[i][0], ranges[i][1], frags, sts)
			d := us(l.tr.end(id))
			if err != nil {
				return err
			}
			perQuery = append(perQuery, d/float64(len(batch)))
		}
	}
	l.m["core.batch_us_per_query"] = median(perQuery)
	return nil
}

func (l *ladder) wireRung(ctx context.Context) error {
	var encNS, decNS, respBytes []float64
	var buf []byte
	var f wire.Frame
	var got wire.TopKResp
	for q, u := range l.queries {
		root := l.tr.begin(q, 0, "wire.codec")
		var enc, dec time.Duration
		size := 0
		for i, frag := range l.frags[q] {
			msg := wire.TopKResp{Query: uint32(u), Shard: int32(i), Frag: frag}
			id := l.tr.begin(q, root, "wire.encode")
			buf = wire.AppendTopKResp(buf[:0], &msg)
			enc += l.tr.end(id)
			size += len(buf)
			id = l.tr.begin(q, root, "wire.decode")
			err := f.Parse(buf)
			if err == nil {
				err = f.TopKResp(&got)
			}
			dec += l.tr.end(id)
			if err != nil {
				return fmt.Errorf("wire round trip for u=%d: %w", u, err)
			}
			if !slices.Equal(got.Frag, frag) {
				return fmt.Errorf("wire round trip for u=%d changed shard %d's fragment", u, i)
			}
		}
		l.tr.end(root)
		encNS = append(encNS, float64(enc))
		decNS = append(decNS, float64(dec))
		respBytes = append(respBytes, float64(size))
	}
	l.m["wire.encode_ns"] = median(encNS)
	l.m["wire.decode_ns"] = median(decNS)
	l.m["wire.resp_bytes"] = mean(respBytes)
	return ctx.Err()
}

func (l *ladder) serverRung(ctx context.Context) error {
	ix, err := l.freshIndex()
	if err != nil {
		return err
	}
	h := server.New(ix)
	var topUS, overUS []float64
	for q, u := range l.queries {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/topk?u=%d&k=%d&stats=1", u, topK), nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		id := l.tr.begin(q, 0, "server.topk")
		h.ServeHTTP(rec, req)
		d := us(l.tr.end(id))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("server /topk u=%d: status %d", u, rec.Code)
		}
		topUS = append(topUS, d)
		overUS = append(overUS, d-l.coreUS[q])
	}
	l.m["server.topk_us"] = median(topUS)
	l.m["server.overhead_us"] = median(overUS)
	return nil
}

// freshTopology serves fresh indexes behind a probed router.
func (l *ladder) freshTopology(ctx context.Context) (*topology, error) {
	idxs := make([]*simrank.Index, numShards)
	unmaps := make([]func() error, numShards)
	for i := range idxs {
		ix, err := l.freshIndex()
		if err != nil {
			return nil, err
		}
		idxs[i] = ix
	}
	top, err := serve(idxs, unmaps)
	if err != nil {
		return nil, err
	}
	if err := top.rt.Probe(ctx); err != nil {
		top.stop()
		return nil, err
	}
	return top, nil
}

// routerRung times the routed top rung twice on fresh topologies, with
// spans on and off, and reports the difference as the tracing overhead.
func (l *ladder) routerRung(ctx context.Context) error {
	var topUS, overUS []float64
	var wall [2]time.Duration
	for pass, tr := range []*tracer{l.tr, {}} {
		top, err := l.freshTopology(ctx)
		if err != nil {
			return err
		}
		c := newClient(top.url, 1)
		start := time.Now()
		for q, u := range l.queries {
			id := tr.begin(q, 0, "router.topk")
			resp, err := c.topk(ctx, u)
			d := us(tr.end(id))
			if err == nil && digestJSON(resp.Results, resp.Stats) != l.want[q] {
				err = fmt.Errorf("%w: routed answer for u=%d", errMismatch, u)
			}
			if err != nil {
				c.close()
				top.stop()
				return err
			}
			if tr.on {
				topUS = append(topUS, d)
				overUS = append(overUS, d-l.maxScan[q])
			}
		}
		wall[pass] = time.Since(start)
		c.close()
		top.stop()
	}
	l.m["router.topk_us"] = median(topUS)
	l.m["router.overhead_us"] = median(overUS)
	l.m["trace.overhead_frac"] = float64(wall[0]-wall[1]) / float64(wall[1])
	return nil
}

func (l *ladder) routerBatchRung(ctx context.Context) error {
	top, err := l.freshTopology(ctx)
	if err != nil {
		return err
	}
	defer top.stop()
	c := newClient(top.url, 1)
	defer c.close()
	var perQuery []float64
	for b, batch := range l.batches {
		id := l.tr.begin(len(l.queries)+b, 0, "router.batch")
		_, err := c.batch(ctx, batch)
		d := us(l.tr.end(id))
		if err != nil {
			return err
		}
		perQuery = append(perQuery, d/float64(len(batch)))
	}
	l.m["router.batch_us_per_query"] = median(perQuery)
	return nil
}
