// Command servebench is the repository's serving benchmark: routed top-k
// SimRank search over a loopback shard topology, end to end and layer by
// layer.
//
// For one workload and seed it generates a copying-model graph and a
// query stream, builds the index and saves it as a v3 snapshot, and
// serves it the way a deployment does: numShards shards, each over its
// own mmap-loaded index behind server.NewShard with the binary protocol
// on, and a router.Router behind an http.Server on loopback. A load
// generator in the same process then drives the router over real HTTP
// with at most GOMAXPROCS connections. Every distinct routed answer is
// checked against a separate single-node index after timing; with
// -trace 1 a traced single-caller replay measures each layer.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload cold-uniform --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 on any
// correctness mismatch and 2 on bad arguments.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	simrank "repro"
	"repro/internal/router"
	"repro/internal/server"
)

// metric is one reported figure; better is "lower" or "higher". For an
// end-to-end metric, about says what it measures; for a per-layer
// metric, which end-to-end metrics on which workloads it should move.
type metric struct {
	name, unit, better, about string
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", about: "graph to probed topology: build + save + S mmap loads + Router.Probe, median of the run's set-ups"},
	{name: "p50_ms", unit: "ms", better: "lower", about: "median request latency in the closed loop (batch-uniform: per batch request)"},
	{name: "p99_ms", unit: "ms", better: "lower", about: "closed-loop tail: median over windows of >= 1000 consecutive requests of each window's p99 (fewer samples: the highest percentile with >= 10 beyond; the output names it)"},
	{name: "qps", unit: "1/s", better: "higher", about: "top-k queries completed per second, closed loop with GOMAXPROCS clients"},
	{name: "ok_frac", unit: "frac", better: "higher", about: "1 - fail_frac: timed requests answered 200 over requests attempted"},
	{name: "mem_mb", unit: "MB", better: "lower", about: "heap in use after a forced GC at the end of the timed phases"},
	{name: "precision_at_20", unit: "frac", better: "higher", about: "eval.PrecisionAtK of served answers against simrank.ExactTopK on the stream's first distinct vertices"},
}

var perLayer = []metric{
	{name: "graph.ball_us", unit: "us", better: "lower", about: "p50_ms, qps on all three workloads (the ball is never cached)"},
	{name: "graph.ball_vertices", unit: "count", better: "lower", about: "p50_ms, qps on all three workloads"},
	{name: "graph.ball_truncated_frac", unit: "frac", better: "lower", about: "p50_ms, qps on all three workloads"},
	{name: "graph.walk_us", unit: "us", better: "lower", about: "qps on cold-uniform and batch-uniform; not warm-zipf"},
	{name: "graph.walk_ns_per_step", unit: "ns", better: "lower", about: "qps on cold-uniform and batch-uniform; not warm-zipf"},
	{name: "core.topk_us", unit: "us", better: "lower", about: "p50_ms, qps on all three workloads"},
	{name: "core.candidates", unit: "count", better: "lower", about: "p50_ms, qps on all three workloads"},
	{name: "core.refined", unit: "count", better: "lower", about: "p50_ms, qps on all three workloads"},
	{name: "core.pruned_bound", unit: "count", better: "higher", about: "p50_ms, qps on all three workloads"},
	{name: "core.pruned_rough", unit: "count", better: "higher", about: "p50_ms, qps on all three workloads"},
	{name: "core.tally_hit_rate", unit: "frac", better: "higher", about: "qps on warm-zipf"},
	{name: "core.prolog_hit_rate", unit: "frac", better: "higher", about: "qps on warm-zipf"},
	{name: "core.shard_scan_us", unit: "us", better: "lower", about: "qps on cold-uniform"},
	{name: "core.shard_amplification", unit: "ratio", better: "lower", about: "qps on cold-uniform"},
	{name: "core.merge_us", unit: "us", better: "lower", about: "qps on cold-uniform"},
	{name: "core.batch_us_per_query", unit: "us", better: "lower", about: "qps on batch-uniform"},
	{name: "wire.encode_ns", unit: "ns", better: "lower", about: "p50_ms on warm-zipf"},
	{name: "wire.decode_ns", unit: "ns", better: "lower", about: "p50_ms on warm-zipf"},
	{name: "wire.resp_bytes", unit: "bytes", better: "lower", about: "p50_ms on warm-zipf"},
	{name: "server.topk_us", unit: "us", better: "lower", about: "p50_ms on warm-zipf"},
	{name: "server.overhead_us", unit: "us", better: "lower", about: "p50_ms on warm-zipf"},
	{name: "router.topk_us", unit: "us", better: "lower", about: "p50_ms on warm-zipf"},
	{name: "router.batch_us_per_query", unit: "us", better: "lower", about: "qps on batch-uniform"},
	{name: "router.overhead_us", unit: "us", better: "lower", about: "p50_ms on warm-zipf, qps on batch-uniform"},
	{name: "router.hedges", unit: "count", better: "lower", about: "p50_ms on warm-zipf, qps on batch-uniform"},
	{name: "router.attempt_errs", unit: "count", better: "lower", about: "ok_frac on every workload"},
	{name: "router.bytes_per_query", unit: "bytes", better: "lower", about: "p50_ms on warm-zipf, qps on batch-uniform"},
	{name: "setup.build_s", unit: "s", better: "lower", about: "setup_s"},
	{name: "setup.save_s", unit: "s", better: "lower", about: "setup_s"},
	{name: "setup.load_s", unit: "s", better: "lower", about: "setup_s"},
	{name: "setup.probe_s", unit: "s", better: "lower", about: "setup_s"},
	{name: "proc.allocs_per_query", unit: "count", better: "lower", about: "qps on warm-zipf"},
	{name: "proc.gc_cpu_frac", unit: "frac", better: "lower", about: "qps on warm-zipf"},
	{name: "loadgen.open_p50_ms", unit: "ms", better: "lower", about: "p50_ms: the same latency under the open loop, timed from due time"},
	{name: "loadgen.open_p99_ms", unit: "ms", better: "lower", about: "p99_ms: the same tail under the open loop, timed from due time"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", about: "none: how late the generator sent open-loop requests"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower", about: "none: span recording cost on the router rung"},
}

const (
	setupReps      = 7   // set-ups per run; setup_s is their median
	precisionN     = 600 // distinct vertices precision_at_20 is measured on
	traceQueries   = 128 // single queries the traced run replays
	traceBatches   = 6   // batches the traced run replays
	defaultWorkDir = ".bench_build/servebench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for the graph and the query stream")
	seconds := fs.Int("seconds", 20, "timed seconds per run")
	traceOn := fs.Int("trace", 0, "1 = also run the traced per-layer replay and report per-layer metrics")
	dir := fs.String("dir", defaultWorkDir, "scratch directory for snapshots and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "servebench: need -workload (%s), -seed >= 1, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		dir:  filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid())),
		vals: make(map[string]float64), notes: make(map[string]string)}
	defer os.RemoveAll(b.dir)
	correct, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	if err := b.report(correct); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: result:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	dir     string

	vals      map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	mismatch  []int
	meta      map[string]any
}

// set records a metric's value and an optional note printed beside it.
func (b *bench) set(name string, v float64, note string) {
	b.vals[name] = v
	if note != "" {
		b.notes[name] = note
	}
}

// run performs the set-ups, the timed phases, the correctness gate and,
// with tracing, the traced replay. It reports whether every answer was
// correct; an error means the run could not complete.
func (b *bench) run(ctx context.Context) (bool, error) {
	g := genGraph(b.seed)
	st := newStream(b.w, g.NumVertices(), b.seed, saltStream)
	b.meta = map[string]any{
		"workload": b.w.name, "why": b.w.why, "seed": b.seed,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"graph":  map[string]any{"model": "copying", "n": g.NumVertices(), "m": g.NumEdges(), "k": graphK, "p": graphP},
		"shards": numShards, "options": servedOptions(), "k": topK,
		"open_rate_per_s": b.w.openRate, "conns": runtime.GOMAXPROCS(0),
	}

	top, path, err := b.setups(ctx, g)
	if err != nil {
		return false, err
	}
	defer top.stop()

	ans := newAnswers()
	if err := b.load(ctx, top, st, ans); err != nil {
		return false, err
	}

	ref, _, err := loadFresh(path)
	if err != nil {
		return false, err
	}
	if err := b.precision(ctx, top, ref, st, ans); err != nil {
		return false, err
	}
	bad, err := verify(ctx, ref, ans)
	if err != nil {
		return false, err
	}
	b.mismatch = bad
	b.meta["distinct_queries_checked"] = len(ans.got)
	correct := len(bad) == 0

	if b.trace {
		l := &ladder{path: path, queries: st.prefix(traceQueries), batches: traceBatchList(b.w, st),
			tr: newTracer(true)}
		if err := l.run(ctx); err != nil {
			if errors.Is(err, errMismatch) {
				fmt.Fprintln(os.Stderr, "servebench: traced replay:", err)
				return false, nil
			}
			return false, err
		}
		for k, v := range l.m {
			b.set(k, v, "")
		}
		tpath := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-seed%d.jsonl", b.w.name, b.seed))
		if err := l.tr.write(tpath); err != nil {
			return false, err
		}
		b.meta["trace_file"] = tpath
		b.meta["trace_spans"] = len(l.tr.spans)
	}
	return correct, nil
}

// traceBatchList is the batches the traced replay sends: the batch
// stream's own batches, or consecutive distinct vertices of the stream.
func traceBatchList(w workload, st *stream) [][]int {
	var out [][]int
	if w.batch {
		for i := 0; i < traceBatches; i++ {
			out = append(out, st.queryBatch(i))
		}
		return out
	}
	flat := st.firstDistinct(traceBatches * batchSize)
	for lo := 0; lo+batchSize <= len(flat); lo += batchSize {
		out = append(out, flat[lo:lo+batchSize])
	}
	return out
}

// setups brings the topology up setupReps times from the same graph and
// keeps the last one serving; the others are torn down untouched.
func (b *bench) setups(ctx context.Context, g *simrank.Graph) (*topology, string, error) {
	var totals, builds, saves, loads, probes []float64
	var top *topology
	var path string
	for r := 0; r < setupReps; r++ {
		if top != nil {
			top.stop()
			top.release()
		}
		runtime.GC() // each set-up starts from the same heap state
		path = filepath.Join(b.dir, fmt.Sprintf("snapshot-%d.idx", r))
		var st setupTimes
		var err error
		top, st, err = setup(ctx, g, path, numShards)
		if err != nil {
			return nil, "", err
		}
		totals = append(totals, st.total)
		builds = append(builds, st.build)
		saves = append(saves, st.save)
		loads = append(loads, st.load)
		probes = append(probes, st.probe)
	}
	b.set("setup_s", median(totals), fmt.Sprintf("median of %d set-ups", setupReps))
	b.set("setup.build_s", median(builds), "")
	b.set("setup.save_s", median(saves), "")
	b.set("setup.load_s", median(loads), fmt.Sprintf("%d mmap loads", numShards))
	b.set("setup.probe_s", median(probes), "")
	return top, path, nil
}

// procStats is the process-wide state the load phases are measured by.
type procStats struct {
	mallocs         uint64
	gcCPU, totalCPU float64
	tally, prolog   simrank.CacheStats
	status          router.RouterStatusz
}

func readProc(ctx context.Context, c *client, top *topology) (procStats, error) {
	var ps procStats
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.mallocs = ms.Mallocs
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	ps.gcCPU, ps.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	for _, sp := range top.shards {
		t, p := sp.idx.CacheStats(), sp.idx.PrologStats()
		ps.tally.Hits += t.Hits
		ps.tally.Misses += t.Misses
		ps.prolog.Hits += p.Hits
		ps.prolog.Misses += p.Misses
	}
	err := c.do(ctx, "GET", "/statusz", nil, &ps.status)
	return ps, err
}

// load runs the warm-up and the timed phases against the router.
func (b *bench) load(ctx context.Context, top *topology, st *stream, ans *answers) error {
	conns := runtime.GOMAXPROCS(0)
	c := newClient(top.url, conns)
	defer c.close()
	if b.w.warmup > 0 {
		warm := newStream(b.w, st.n, b.seed, saltWarm)
		closedLoop(ctx, time.Hour, conns, b.w.warmup, topkSender(c, warm, 0, ans))
	}

	before, err := readProc(ctx, c, top)
	if err != nil {
		return err
	}
	var open []sample
	total := time.Duration(b.seconds) * time.Second
	if b.w.openRate > 0 {
		total /= 2
		open = openLoop(ctx, int(b.w.openRate*total.Seconds()), b.w.openRate, conns, topkSender(c, st, 0, ans))
	}
	var send sender
	limit := math.MaxInt32
	if b.w.batch {
		send = batchSender(c, st, 0, ans)
	} else {
		send = topkSender(c, st, len(open), ans)
		if st.cdf == nil {
			limit = st.n - len(open)
		}
	}
	closed, elapsed := closedLoop(ctx, total, conns, limit, send)
	sort.Slice(closed, func(i, j int) bool { return closed[i].sent < closed[j].sent })
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.set("mem_mb", float64(ms.HeapInuse)/(1<<20), "heap in use after a forced GC")
	after, err := readProc(ctx, c, top)
	if err != nil {
		return err
	}

	queries, doneQ := 0, 0
	for _, phase := range [][]sample{open, closed} {
		for _, s := range phase {
			b.attempted++
			if s.ok {
				queries += s.queries
			} else {
				b.failed++
			}
		}
	}
	for _, s := range closed {
		if s.ok {
			doneQ += s.queries
		}
	}
	b.set("qps", float64(doneQ)/elapsed.Seconds(), fmt.Sprintf("%d queries in %.2fs, %d clients", doneQ, elapsed.Seconds(), conns))
	b.set("ok_frac", float64(b.attempted-b.failed)/float64(b.attempted), fmt.Sprintf("fail_frac %.6f = %d failed of %d requests", float64(b.failed)/float64(b.attempted), b.failed, b.attempted))
	b.setLatency("p50_ms", "p99_ms", "closed loop", closed)
	if len(open) > 0 {
		b.setLatency("loadgen.open_p50_ms", "loadgen.open_p99_ms", "open loop, from due time", open)
		late := make([]float64, len(open))
		for i, s := range open {
			late[i] = float64(s.sent-s.due) / 1e6
		}
		v, p := tail(late)
		b.set("loadgen.late_p99_ms", v, fmt.Sprintf("p%g of open-loop send lateness", p))
	} else {
		for _, name := range []string{"loadgen.open_p50_ms", "loadgen.open_p99_ms", "loadgen.late_p99_ms"} {
			b.set(name, 0, "closed loop only: no open-loop phase")
		}
	}

	b.set("proc.allocs_per_query", float64(after.mallocs-before.mallocs)/float64(queries), "whole process, timed phases")
	b.set("proc.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU), "")
	b.set("core.tally_hit_rate", hitRate(before.tally, after.tally), "summed over shards, timed phases")
	b.set("core.prolog_hit_rate", hitRate(before.prolog, after.prolog), "summed over shards, timed phases")
	var hedges, errs, bytes int64
	for i := range after.status.Shards {
		a, p := after.status.Shards[i], before.status.Shards[i]
		hedges += a.HedgesFired - p.HedgesFired
		errs += a.AttemptErrsTotal - p.AttemptErrsTotal
		bytes += a.BytesSent + a.BytesReceived - p.BytesSent - p.BytesReceived
	}
	b.set("router.hedges", float64(hedges), "/statusz delta")
	b.set("router.attempt_errs", float64(errs), "/statusz delta")
	b.set("router.bytes_per_query", float64(bytes)/float64(queries), "shard wire bytes, both directions")
	b.meta["timed_requests"] = map[string]int{"open": len(open), "closed": len(closed)}
	return nil
}

// setLatency reports the median and the tail of time-ordered request
// latencies. The tail is the median over consecutive windows of each
// window's highest percentile with minBeyond samples beyond it.
func (b *bench) setLatency(p50, p99, kind string, samples []sample) {
	ls := make([]float64, len(samples))
	for i, s := range samples {
		ls[i] = s.latencyMS()
	}
	b.set(p50, median(ls), fmt.Sprintf("%s, n=%d", kind, len(ls)))
	tails, p := windowedTail(ls)
	b.set(p99, median(tails), fmt.Sprintf("%s: median over %d windows of %d requests of each window's p%g (>= %d beyond): %.4g",
		kind, len(tails), len(ls)/len(tails), p, minBeyond, tails))
}

func hitRate(before, after simrank.CacheStats) float64 {
	h, m := after.Hits-before.Hits, after.Misses-before.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// precision queries the sample through the router (outside timing; the
// answers join the correctness gate) and scores them against the exact
// truncated series.
func (b *bench) precision(ctx context.Context, top *topology, ref *simrank.Index, st *stream, ans *answers) error {
	c := newClient(top.url, 1)
	defer c.close()
	sample := st.firstDistinct(precisionN)
	served := make(map[int][]server.ResultJSON, len(sample))
	for _, u := range sample {
		resp, err := c.topk(ctx, u)
		if err != nil {
			return err
		}
		ans.note(u, digestJSON(resp.Results, resp.Stats))
		served[u] = resp.Results
	}
	p, err := precisionAt20(ref.Graph(), servedOptions(), served, sample)
	if err != nil {
		return err
	}
	b.set("precision_at_20", p, fmt.Sprintf("%d vertices", len(sample)))
	return nil
}

// report prints the meta block and every measured metric by name with
// its unit, then the result line. It fails, printing no result line,
// when a reported value is not a finite number.
func (b *bench) report(correct bool) error {
	b.meta["mismatches"] = len(b.mismatch)
	b.meta["metrics"] = describe()
	meta, err := json.Marshal(b.meta)
	if err != nil {
		return err
	}
	fmt.Println("meta", string(meta))
	for _, group := range [][]metric{endToEnd, perLayer} {
		for _, m := range group {
			v, ok := b.vals[m.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-28s %14.6g %s", m.name, v, m.unit)
			if n := b.notes[m.name]; n != "" {
				line += "  (" + n + ")"
			}
			fmt.Println(line)
		}
	}
	if len(b.mismatch) > 0 {
		fmt.Printf("MISMATCH: %d distinct queries differ from the single-node reference, first: %v\n",
			len(b.mismatch), b.mismatch[:min(10, len(b.mismatch))])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]value)}
	set := endToEnd
	if b.trace {
		set = perLayer
	}
	for _, m := range set {
		out.Metrics[m.name] = value{b.vals[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// describe lists every metric with its unit and what it should move, for
// the meta block.
func describe() []map[string]string {
	var out []map[string]string
	for _, group := range [][]metric{endToEnd, perLayer} {
		for _, m := range group {
			out = append(out, map[string]string{"name": m.name, "unit": m.unit, "about": m.about})
		}
	}
	return out
}
