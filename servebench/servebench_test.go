package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	simrank "repro"
)

func TestSeedDeterminesGraphAndStreams(t *testing.T) {
	fp := func(seed uint64) uint64 { return genGraph(seed).Internal().Fingerprint() }
	if fp(3) != fp(3) {
		t.Fatal("same seed gave different graphs")
	}
	if fp(3) == fp(4) {
		t.Fatal("different seeds gave the same graph")
	}
	for _, w := range workloads {
		a := newStream(w, graphN, 3, saltStream).prefix(300)
		b := newStream(w, graphN, 3, saltStream).prefix(300)
		c := newStream(w, graphN, 4, saltStream).prefix(300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
	}
}

func TestStreamShapes(t *testing.T) {
	cold, _ := findWorkload("cold-uniform")
	st := newStream(cold, graphN, 1, saltStream)
	seen := map[int]bool{}
	for i := 0; ; i++ {
		u, ok := st.query(i)
		if !ok {
			if i != graphN {
				t.Fatalf("distinct stream ended after %d queries, want %d", i, graphN)
			}
			break
		}
		if seen[u] {
			t.Fatalf("distinct stream repeats vertex %d", u)
		}
		seen[u] = true
	}
	batch, _ := findWorkload("batch-uniform")
	inBatch := map[int]bool{}
	for i, u := range newStream(batch, graphN, 1, saltStream).queryBatch(7) {
		if inBatch[u] {
			t.Fatalf("batch repeats vertex %d at %d", u, i)
		}
		inBatch[u] = true
	}
	zipf, _ := findWorkload("warm-zipf")
	zs := newStream(zipf, graphN, 1, saltStream).prefix(2000)
	counts := map[int]int{}
	for _, u := range zs {
		counts[u]++
	}
	if len(counts) > len(zs)/2 {
		t.Fatalf("Zipf stream has %d distinct of %d queries; expected heavy repetition", len(counts), len(zs))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			if beyond := tc.n - rank(tc.want, tc.n); beyond < minBeyond {
				t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, tc.want, beyond)
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	if v, p := tail(xs); p != 99 || v != 990 {
		t.Fatalf("tail = p%g %g, want p99 990 (10 samples beyond)", p, v)
	}
	if m := median(xs); m != 500.5 {
		t.Fatalf("median = %g, want 500.5", m)
	}
}

// A handler that stalls must show up as lateness and tail latency, with
// every scheduled request still sampled.
func TestOpenLoopStallShowsAsLatenessNotMissingSamples(t *testing.T) {
	var mu sync.Mutex
	var calls atomic.Int64
	const stall = 300 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // every request waits out the stall
		if calls.Add(1) == 10 {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	const n, rate = 100, 200.0
	samples := openLoop(context.Background(), n, rate, 2, func(ctx context.Context, i int) (int, bool) {
		var out struct{}
		return 1, c.do(ctx, http.MethodGet, "/", nil, &out) == nil
	})
	if len(samples) != n {
		t.Fatalf("%d samples, want %d", len(samples), n)
	}
	var lat, late []float64
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		lat = append(lat, s.latencyMS())
		late = append(late, float64(s.sent-s.due)/1e6)
	}
	if v, p := tail(late); v < 100 {
		t.Errorf("lateness p%g = %.1fms, want >= 100ms after a %v stall", p, v, stall)
	}
	if v, p := tail(lat); v < 200 {
		t.Errorf("latency p%g = %.1fms, want >= 200ms after a %v stall", p, v, stall)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 40}, // grandchild
		{ID: 6, Name: "other root", Start: 200, End: 230},  // no children
		{ID: 7, Parent: 2, Name: "a1", Start: 10, End: 30}, // covers all of a
		{ID: 8, Parent: 6, Name: "before", Start: 190, End: 205},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100 - (50 - 10) - (100 - 90), // children cover [10,50] and [90,100]
		0,                            // a1 covers a
		30 - 15,                      // b minus b1
		30,                           // c has no children
		15,                           // b1
		30 - 5,                       // "before" covers [200,205]
		20,
		15,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// smallSnapshot saves a small served index and returns its path.
func smallSnapshot(t *testing.T) string {
	t.Helper()
	g := simrank.GenerateWebGraph(400, 6, 0.3, 7)
	path := filepath.Join(t.TempDir(), "small.idx")
	if err := saveIndex(simrank.BuildIndex(g, servedOptions()), path); err != nil {
		t.Fatal(err)
	}
	return path
}

// Each rung loads its own index, so no rung starts with prolog hits that
// an earlier rung left behind.
func TestEachRungStartsWithoutPrologHits(t *testing.T) {
	path := smallSnapshot(t)
	l := &ladder{path: path, tr: newTracer(true)}
	s, err := l.freshSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.TopKStatsCtx(context.Background(), 5, topK); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.PrologStats(); st.Hits == 0 {
		t.Fatalf("a repeated query should hit the prolog cache: %+v", st)
	}
	next, err := l.freshIndex()
	if err != nil {
		t.Fatal(err)
	}
	if st := next.PrologStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("fresh index after a warmed rung has prolog state %+v", st)
	}

	// The whole replay, repeats included, passes every rung's checks.
	l = &ladder{path: path, queries: []int{5, 5, 17, 101, 5}, batches: [][]int{{1, 2, 3}, {4, 5, 6}},
		tr: newTracer(true)}
	if err := l.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := l.m[m.name]; !ok && !servedRunMetric(m.name) {
			t.Errorf("traced replay did not report %s", m.name)
		}
	}
}

// servedRunMetric reports whether a per-layer metric comes from the
// set-ups and timed phases rather than the traced replay.
func servedRunMetric(name string) bool {
	switch name {
	case "core.tally_hit_rate", "core.prolog_hit_rate", "router.hedges", "router.attempt_errs",
		"router.bytes_per_query":
		return true
	}
	return strings.HasPrefix(name, "setup.") || strings.HasPrefix(name, "proc.") || strings.HasPrefix(name, "loadgen.")
}

func TestVerifyFlagsWrongAndInconsistentAnswers(t *testing.T) {
	path := smallSnapshot(t)
	ref, _, err := loadFresh(path)
	if err != nil {
		t.Fatal(err)
	}
	ans := newAnswers()
	for _, u := range []int{3, 9, 27} {
		res, st, err := ref.TopKWithStatsCtx(context.Background(), u, topK)
		if err != nil {
			t.Fatal(err)
		}
		ans.note(u, digestResults(res, st))
	}
	bad, err := verify(context.Background(), ref, ans)
	if err != nil || len(bad) != 0 {
		t.Fatalf("verify on correct answers = %v, %v", bad, err)
	}
	ans.note(9, digest{1})    // a wrong answer
	ans.note(27, ans.got[27]) // a consistent repeat
	ans.note(3, digest{2})    // disagrees with its earlier answer...
	res, st, _ := ref.TopKWithStatsCtx(context.Background(), 3, topK)
	ans.note(3, digestResults(res, st)) // ...even though the last one is right
	bad, err = verify(context.Background(), ref, ans)
	if err != nil || !reflect.DeepEqual(bad, []int{3, 9}) {
		t.Fatalf("verify = %v, %v; want [3 9]", bad, err)
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1) // each window holds 1..1000
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6 // a stall in the second window
	}
	tails, p := windowedTail(xs)
	if len(tails) != 3 || p != 99 || median(tails) != 990 {
		t.Fatalf("windowedTail = %v at p%g, want a median of 990 at p99 over 3 windows", tails, p)
	}
	if tails, _ := windowedTail(xs[:1999]); len(tails) != 1 || tails[0] != 1e6 {
		t.Fatalf("fewer than two windows' samples: tails %v, want the whole-sample p99", tails)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

// BENCHMARK.json at the repository root declares the workloads and
// metrics this program reports; the two must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Why    string   `json:"why"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		label string
		decls []decl
		ms    []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.decls) != len(c.ms) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.label, len(c.decls), len(c.ms))
		}
		for i, m := range c.ms {
			d := c.decls[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					c.label, i, d.Name, d.Unit, d.Better, m.name, m.unit, m.better)
			}
			if (d.Bound != nil) != (c.label == "end_to_end") {
				t.Errorf("%s %s: bound present = %v", c.label, d.Name, d.Bound != nil)
			}
		}
	}
}
