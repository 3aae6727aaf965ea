package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	simrank "repro"
	"repro/internal/eval"
	"repro/internal/server"
)

// digest identifies one top-k answer: its results with exact score bits
// and its four replayed scan counters. Cache counters are left out: each
// shard has its own tally cache, so they depend on the topology and on
// the traffic before the query, never on the answer.
type digest [16]byte

// digestOf digests n results, result i given by at, and the replayed
// scan counters (candidates, pruned by bound, pruned by rough, refined).
func digestOf(n int, at func(i int) (node int, score float64), scan [4]int) digest {
	h := fnv.New128a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	word(uint64(n))
	for i := 0; i < n; i++ {
		node, score := at(i)
		word(uint64(node))
		word(math.Float64bits(score))
	}
	for _, c := range scan {
		word(uint64(c))
	}
	var out digest
	copy(out[:], h.Sum(nil))
	return out
}

// digestJSON digests an answer as the router serves it.
func digestJSON(res []server.ResultJSON, st *server.QueryStatsJSON) digest {
	return digestOf(len(res), func(i int) (int, float64) { return res[i].Node, res[i].Score },
		[4]int{st.Candidates, st.PrunedByBound, st.PrunedByRough, st.Refined})
}

// digestResults digests an answer as a single-node index returns it.
func digestResults(res []simrank.Result, st simrank.QueryStats) digest {
	return digestOf(len(res), func(i int) (int, float64) { return res[i].Node, res[i].Score },
		[4]int{st.Candidates, st.PrunedByBound, st.PrunedByRough, st.Refined})
}

// verify compares every distinct routed answer with the answer the
// single-node reference index gives to the query sent alone, and returns
// the vertices that differ, sorted. Vertices two routed answers
// disagreed on count as mismatches.
func verify(ctx context.Context, ref *simrank.Index, ans *answers) ([]int, error) {
	ans.mu.Lock()
	defer ans.mu.Unlock()
	vs := make([]int, 0, len(ans.got))
	for u := range ans.got {
		vs = append(vs, u)
	}
	sort.Ints(vs)
	differs := make([]bool, len(vs))
	err := parallelFor(len(vs), func(i int) error {
		res, st, err := ref.TopKWithStatsCtx(ctx, vs[i], topK)
		if err != nil {
			return fmt.Errorf("reference answer for u=%d: %w", vs[i], err)
		}
		differs[i] = ans.conflicts[vs[i]] || digestResults(res, st) != ans.got[vs[i]]
		return nil
	})
	if err != nil {
		return nil, err
	}
	var bad []int
	for i, d := range differs {
		if d {
			bad = append(bad, vs[i])
		}
	}
	return bad, nil
}

// precisionAt20 is the mean eval.PrecisionAtK of served answers against
// simrank.ExactTopK over the sample, summed in sample order so the
// figure repeats exactly.
func precisionAt20(g *simrank.Graph, opts simrank.Options, served map[int][]server.ResultJSON, sample []int) (float64, error) {
	ps := make([]float64, len(sample))
	err := parallelFor(len(sample), func(i int) error {
		want, err := simrank.ExactTopK(g, opts, sample[i], topK)
		if err != nil {
			return err
		}
		ps[i] = eval.PrecisionAtK(
			eval.Collect(served[sample[i]], func(r server.ResultJSON) uint32 { return uint32(r.Node) }),
			eval.Collect(want, func(r simrank.Result) uint32 { return uint32(r.Node) }),
			topK)
		return nil
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, p := range ps {
		sum += p
	}
	return sum / float64(len(sample)), nil
}

// parallelFor calls fn(i) for every i in [0, n) on GOMAXPROCS workers
// and returns the error of the lowest failing i.
func parallelFor(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
