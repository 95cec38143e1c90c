package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"gkmeans"
	"gkmeans/internal/anns"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

const (
	// searchWindows is how many stretches of the run the in-process
	// timing is spread over: after the clustering job, after the serve
	// index is built, and after the serve phase.
	searchWindows = 3
	// stepsPerWindow is how many steps a window makes. A step is one
	// pass of single Search calls over all the queries, then one
	// SearchBatch call over them.
	stepsPerWindow = 16
	// searchPasses is how many Search passes a run makes.
	searchPasses = searchWindows * stepsPerWindow
	// batchWorkers is SearchBatch's worker count.
	batchWorkers = 2
)

// searchBench is the in-process search phase over the job's graph. Its
// timings are gathered window by window between the other phases, so that
// a stretch of host contention reaches only part of them.
type searchBench struct {
	r        *run
	g        *gkmeans.Graph
	x        *gkmeans.Index
	passes   [][]float64 // per-call latency in µs, one slice per pass
	untraced [][]float64 // traced runs: passes timed without spans
	qps      []float64   // queries per second, one per SearchBatch call
	first    [][]int32   // the first answer to each query
	next     int         // the next pass of inputs.searchOrder
}

// newSearchBench builds the index the search phase times and returns it
// with the median set-up time: NewIndex over the graph plus the first
// Search, which builds the lazy CSR adjacency.
func (r *run) newSearchBench(g *gkmeans.Graph) (*searchBench, float64, error) {
	in := r.in
	b := &searchBench{r: r, g: g, first: make([][]int32, in.searchQ.N)}
	setups := make([]float64, setupReps)
	for rep := range setups {
		sp := r.tr.begin("search.setup", 0, r.req())
		start := time.Now()
		var err error
		if b.x, err = gkmeans.NewIndex(in.base, g, gkmeans.WithWorkers(batchWorkers)); err != nil {
			return nil, 0, fmt.Errorf("NewIndex: %w", err)
		}
		b.x.Search(in.searchQ.Row(0), topK, ef)
		setups[rep] = time.Since(start).Seconds()
		sp.end()
	}
	return b, median(setups), nil
}

// window makes stepsPerWindow steps. Traced runs time each pass once
// without spans first, so the difference shows what tracing costs.
func (b *searchBench) window() {
	r := b.r
	runtime.GC()
	for range stepsPerWindow {
		order := r.in.searchOrder[b.next*searchQueries : (b.next+1)*searchQueries]
		b.next++
		if r.tr != nil {
			b.untraced = append(b.untraced, b.pass(order, nil))
		}
		b.passes = append(b.passes, b.pass(order, r.tr))

		sp := r.tr.begin("gkmeans.Index.SearchBatch", 0, r.req())
		start := time.Now()
		out := b.x.SearchBatch(r.in.searchQ, topK, ef)
		b.qps = append(b.qps, float64(r.in.searchQ.N)/time.Since(start).Seconds())
		sp.end()
		for q, res := range out {
			if err := checkResult(neighborIDs(res), neighborDists(res), r.in.base.N); err != nil {
				r.res.fail("search: SearchBatch query %d: %v", q, err)
			}
		}
		r.res.ops(len(out), 0)
	}
}

// pass makes one Search call per query in order, timing each, checks
// every result, keeps each query's first answer and returns the latencies
// in µs.
func (b *searchBench) pass(order []int, tr *tracer) []float64 {
	r := b.r
	lat := make([]float64, len(order))
	for i, q := range order {
		sp := tr.begin("gkmeans.Index.Search", 0, r.req())
		start := time.Now()
		res := b.x.Search(r.in.searchQ.Row(q), topK, ef)
		lat[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		sp.end()
		ids := neighborIDs(res)
		if err := checkResult(ids, neighborDists(res), r.in.base.N); err != nil {
			r.res.fail("search: query %d: %v", q, err)
		}
		if b.first[q] == nil {
			b.first[q] = ids
		}
	}
	r.res.ops(len(lat), 0)
	return lat
}

// report sets the search metrics once every window has run. The passes
// are ranked by their median: search_p50_us is the fastest pass's median
// and search_p99_us the p99 of the fastest tenth pooled, since one pass
// has only ten calls beyond its p99. batch_qps is the median over every
// SearchBatch call: two workers keep both cores busy, and its median was
// steadier from run to run than its fastest calls.
func (b *searchBench) report() error {
	r, in := b.r, b.r.in
	fastest := fastestBlocks(b.passes, 1)
	r.res.set("search_p50_us", fastest.p50)
	r.res.setTail("search_p99_us", fastestBlocks(b.passes, tailBlocks(len(b.passes))))
	r.res.set("batch_qps", median(slices.Clone(b.qps)))
	meds := make([]float64, len(b.passes))
	for i, p := range b.passes {
		meds[i] = median(p)
	}
	r.res.notef("search: %d passes of %d queries in %d windows; pass medians %.1f fastest, %.1f median, %.1f slowest us",
		len(b.passes), in.searchQ.N, searchWindows, fastest.p50, median(slices.Clone(meds)), slices.Max(meds))
	if r.tr != nil {
		r.res.set("bench.trace_overhead", fastest.p50/fastestBlocks(b.untraced, 1).p50-1)
	}

	truth := exactTopK(rowsOf(in.base), rowsSlice(in.searchQ), topK, nil)
	hits := 0
	for q, res := range b.first {
		hits += overlap(res, truth[q])
	}
	r.res.set("search_recall_at_10", float64(hits)/float64(topK*len(b.first)))

	if r.tr != nil {
		return r.traceSearchLayers(b.g)
	}
	return nil
}

// checkResult checks a top-10 answer: ten distinct ids below bound,
// sorted by ascending distance.
func checkResult(ids []int32, dists []float32, bound int) error {
	if len(ids) != topK {
		return fmt.Errorf("%d results, want %d", len(ids), topK)
	}
	seen := make(map[int32]bool, len(ids))
	for i, id := range ids {
		if id < 0 || int(id) >= bound {
			return fmt.Errorf("id %d out of range [0,%d)", id, bound)
		}
		if seen[id] {
			return fmt.Errorf("id %d returned twice", id)
		}
		seen[id] = true
		if i > 0 && dists[i] < dists[i-1] {
			return fmt.Errorf("results not sorted by distance at rank %d", i)
		}
	}
	return nil
}

func neighborIDs(res []gkmeans.Neighbor) []int32 {
	ids := make([]int32, len(res))
	for i, nb := range res {
		ids[i] = nb.ID
	}
	return ids
}

func neighborDists(res []gkmeans.Neighbor) []float32 {
	d := make([]float32, len(res))
	for i, nb := range res {
		d[i] = nb.Dist
	}
	return d
}

// traceSearchLayers times the anns searcher and the float32 kernel
// directly.
func (r *run) traceSearchLayers(g *knngraph.Graph) error {
	in := r.in
	req := r.req()
	sp := r.tr.begin("anns.NewSearcher", 0, req)
	start := time.Now()
	s, err := anns.NewSearcher(in.base, g, 0)
	build := time.Since(start)
	sp.end()
	if err != nil {
		return fmt.Errorf("anns.NewSearcher: %w", err)
	}
	q0, d0, e0 := s.Totals()
	lat := make([]float64, in.searchQ.N)
	for q := range lat {
		sp := r.tr.begin("anns.Searcher.Search", 0, r.req())
		start := time.Now()
		s.Search(in.searchQ.Row(q), topK, ef)
		lat[q] = float64(time.Since(start).Nanoseconds()) / 1e3
		sp.end()
	}
	q1, d1, e1 := s.Totals()
	nq := float64(q1 - q0)
	distPerQuery := float64(d1-d0) / nq
	r.res.set("anns.searcher_build_s", build.Seconds())
	r.res.set("anns.search_us", median(lat))
	r.res.set("anns.dist_comps_per_query", distPerQuery)
	r.res.set("anns.expanded_per_query", float64(e1-e0)/nq)
	r.res.set("anns.entry_points", float64(s.Entries()))
	r.res.set("vec.bytes_per_query_f32", distPerQuery*dim*4)

	a, b := in.searchQ, in.base
	r.res.set("vec.kernel_ns_f32", kernelNS(func(i, j int) float32 {
		return vec.L2SqrBound(a.Row(i%a.N), b.Row(j), math.MaxFloat32)
	}))
	r.res.notef("vec: bytes_per_query_* are computed as distance comps x %d dims x element size, not measured", dim)
	return nil
}

// kernelSink keeps kernel results alive so the timed loops are not
// optimised away.
var kernelSink float32

// kernelNS is the median over five passes of the time per call of a
// distance kernel over 128-d workload rows: pass p pairs row i of one set
// with rows j of another.
func kernelNS(kernel func(i, j int) float32) float64 {
	const pairs = 200_000
	passes := make([]float64, 5)
	for p := range passes {
		start := time.Now()
		var acc float32
		for n := 0; n < pairs; n++ {
			acc += kernel(n/1000+p, n%1000)
		}
		passes[p] = float64(time.Since(start).Nanoseconds()) / pairs
		kernelSink += acc
	}
	return median(passes)
}
