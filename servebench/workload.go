package main

import (
	"math"
	"sort"

	simrank "repro"
	"repro/internal/rng"
)

// The measurement setup: a copying-model web graph with n vertices, K
// out-links per page and copy divergence P, served as S shards.
const (
	graphN       = 20000
	graphK       = 8
	graphP       = 0.3
	numShards    = 2
	topK         = 20
	batchSize    = 32
	zipfExponent = 1.1
	// cacheBytes is the served tally-cache budget per shard. Every
	// workload serves the same configuration; only the traffic differs.
	cacheBytes = 8 << 20
)

// workload is one traffic mix against the shared served configuration.
type workload struct {
	name string
	why  string
	// openRate is the open-loop request rate in requests per second;
	// 0 means the workload runs its closed loop only.
	openRate float64
	// zipf draws query vertices from a Zipf(zipfExponent) popularity law
	// instead of distinct uniform vertices.
	zipf bool
	// batch sends POST /topk/batch with batchSize distinct uniform
	// vertices per request instead of GET /topk.
	batch bool
	// warmup is the number of untimed queries sent before timing.
	warmup int
}

var workloads = []workload{
	{
		name:     "cold-uniform",
		why:      "distinct uniform vertices miss the prolog cache, so each shard's BFS ball and u-side walks dominate; an open loop at 350 req/s, then a closed loop with nproc clients",
		openRate: 350,
	},
	{
		name:     "warm-zipf",
		why:      "Zipf(1.1) stream after a warm-up: prolog walks and most tallies are cached, so BFS, scoring, wire and router carry the query; open loop at 450 req/s, then a closed loop",
		openRate: 450,
		zipf:     true,
		warmup:   3000,
	},
	{
		name:  "batch-uniform",
		why:   "closed loop of POST /topk/batch with 32 distinct uniform vertices (k=20) per request: one scatter frame per shard per batch, shards parallelise across queries",
		batch: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Salts separate the random streams derived from one seed.
const (
	saltOrder  = 0x6f72646572 // vertex permutation behind uniform and Zipf draws
	saltStream = 0x73747265616d
	saltWarm   = 0x7761726d
)

// genGraph generates the workload graph from the seed.
func genGraph(seed uint64) *simrank.Graph {
	return simrank.GenerateWebGraph(graphN, graphK, graphP, seed)
}

// stream is a deterministic query stream: entry i is a pure function of
// (seed, salt, i), so any phase can read any range of it and the same
// seed always yields the same queries.
type stream struct {
	n     int
	seed  uint64
	salt  uint64
	order []int     // a seeded permutation of [0, n)
	cdf   []float64 // Zipf popularity by rank; nil for distinct uniform
	batch bool
}

// newStream returns the stream w draws its queries from. salt selects
// an independent stream over the same vertex order (the warm-up uses
// its own salt so timed queries are fresh draws).
func newStream(w workload, n int, seed, salt uint64) *stream {
	s := &stream{n: n, seed: seed, salt: salt, batch: w.batch}
	s.order = rng.New(rng.Mix(seed ^ saltOrder)).Perm(n)
	if w.zipf {
		s.cdf = zipfCDF(n, zipfExponent)
	}
	return s
}

// zipfCDF is the cumulative popularity of ranks 1..n under Zipf(s),
// normalised to 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// query returns the i-th single query. Distinct uniform streams hold n
// queries; ok is false past the end.
func (s *stream) query(i int) (u int, ok bool) {
	if s.cdf == nil {
		if i >= s.n {
			return 0, false
		}
		return s.order[i], true
	}
	x := rng.New(rng.Mix(s.seed^s.salt) ^ rng.Mix(uint64(i))).Float64()
	rank := sort.SearchFloat64s(s.cdf, x)
	if rank >= s.n {
		rank = s.n - 1
	}
	return s.order[rank], true
}

// queryBatch returns the i-th batch: batchSize distinct uniform vertices.
func (s *stream) queryBatch(i int) []int {
	return rng.New(rng.Mix(s.seed^s.salt)^rng.Mix(uint64(i))).Sample(s.n, batchSize)
}

// prefix returns the stream's first k single queries in order, repeats
// included; a batch stream contributes its batches' vertices in order.
func (s *stream) prefix(k int) []int {
	out := make([]int, 0, k)
	for i := 0; len(out) < k; i++ {
		if s.batch {
			out = append(out, s.queryBatch(i)...)
			continue
		}
		u, ok := s.query(i)
		if !ok {
			break
		}
		out = append(out, u)
	}
	return out[:min(k, len(out))]
}

// firstDistinct returns the first k distinct vertices of the stream, in
// stream order: the sample precision is measured on.
func (s *stream) firstDistinct(k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for _, u := range s.prefix(100 * k) {
		if len(out) == k {
			break
		}
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}
