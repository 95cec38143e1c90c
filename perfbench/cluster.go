package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"gkmeans"
	"gkmeans/internal/core"
	"gkmeans/internal/knngraph"
	"gkmeans/internal/vec"
)

// clusterK is the paper's large-k setting for the clustering job.
const clusterK = 1000

// graphRecallSample is how many nodes core.graph_recall checks against
// their exact κ nearest neighbours.
const graphRecallSample = 200

// clusterPhase runs one clustering job, the paper's end-to-end claim, and
// returns its graph for the search phase: Build's graph does not depend on
// WithClusters, so it is the graph Build makes with its defaults.
func (r *run) clusterPhase() (*gkmeans.Graph, error) {
	base := r.in.base
	sp := r.tr.begin("gkmeans.Build", 0, r.req())
	start := time.Now()
	x, err := gkmeans.Build(r.ctx, base, gkmeans.WithClusters(clusterK))
	elapsed := time.Since(start)
	sp.end()
	r.res.ops(1, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster job: %w", err)
	}
	res := x.Clusters()
	if err := res.Validate(base); err != nil {
		r.res.fail("cluster: %v", err)
	}
	d := distortion(base, res.Labels, clusterK)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		r.res.fail("cluster: distortion %v is not finite", d)
	}
	if own := res.Distortion(base); math.Abs(own-d) > 1e-3*d {
		r.res.fail("cluster: Result.Distortion %.6g differs from the members' mean distortion %.6g", own, d)
	}
	r.res.set("cluster_s", elapsed.Seconds())
	r.res.set("distortion", d)
	r.res.notef("cluster: graph %.3fs, 2M-tree init %.3fs, %d epochs %.3fs, %.2f candidate clusters per sample",
		x.GraphTime().Seconds(), res.InitTime.Seconds(), res.Iters, res.IterTime.Seconds(), res.AvgCandidates)
	if r.tr != nil {
		if err := r.traceCore(res.Labels); err != nil {
			return nil, err
		}
	}
	return x.Graph(), nil
}

// distortion is the mean squared distance from each row to the mean of its
// cluster's rows, computed here rather than by the program.
func distortion(data *vec.Matrix, labels []int, k int) float64 {
	sums := make([]float64, k*data.Dim)
	counts := make([]int, k)
	for i, l := range labels {
		if l < 0 || l >= k {
			return math.NaN()
		}
		counts[l]++
		for j, v := range data.Row(i) {
			sums[l*data.Dim+j] += float64(v)
		}
	}
	total := 0.0
	for i, l := range labels {
		c := sums[l*data.Dim : (l+1)*data.Dim]
		n := float64(counts[l])
		for j, v := range data.Row(i) {
			d := float64(v) - c[j]/n
			total += d * d
		}
	}
	return total / float64(len(labels))
}

// traceCore calls the two algorithms Build chains, with Build's
// configuration and seed, recording graph rounds and clustering epochs
// through the public hooks. Its labels must equal the job's.
func (r *run) traceCore(jobLabels []int) error {
	base := r.in.base
	req := r.req()
	var rounds []time.Time
	gc := core.GraphConfig{OnRound: func(int, *knngraph.Graph, []int) { rounds = append(rounds, time.Now()) }}
	sp := r.tr.begin("core.BuildGraphWithStats", 0, req)
	start := time.Now()
	g, st, err := core.BuildGraphWithStats(base, gc)
	graphTime := time.Since(start)
	sp.end()
	if err != nil {
		return fmt.Errorf("core.BuildGraphWithStats: %w", err)
	}
	roundTimes := r.hookSpans("core.graph.round", sp.id, req, start, rounds)

	var epochs []time.Time
	cc := core.Config{K: clusterK, OnEpoch: func(int, int) { epochs = append(epochs, time.Now()) }}
	sp = r.tr.begin("core.Cluster", 0, req)
	start = time.Now()
	cres, err := core.Cluster(base, g, cc)
	sp.end()
	if err != nil {
		return fmt.Errorf("core.Cluster: %w", err)
	}
	epochTimes := r.hookSpans("core.cluster.epoch", sp.id, req, start.Add(cres.InitTime), epochs)
	if !slices.Equal(cres.Labels, jobLabels) {
		r.res.fail("cluster: core.BuildGraphWithStats + core.Cluster labels differ from Build's")
	}

	r.res.set("core.graph_s", graphTime.Seconds())
	r.res.set("core.graph_round_s", median(roundTimes))
	r.res.set("core.graph_dist_comps", float64(st.DistComps))
	r.res.set("core.graph_recall", graphRecall(base, g, r.seed))
	r.res.set("core.cluster_init_s", cres.InitTime.Seconds())
	r.res.set("core.cluster_epoch_s", median(epochTimes))
	r.res.set("core.cluster_epochs", float64(cres.Iters))
	r.res.set("core.cluster_candidates", cres.AvgCandidates)
	r.res.notef("core: %d graph rounds; cluster_init_s is core.Result.InitTime, reported by the module", st.Rounds)
	return nil
}

// hookSpans turns the times at which a progress hook fired into child
// spans of parent, the first starting at from, and returns their lengths
// in seconds.
func (r *run) hookSpans(name string, parent, req int64, from time.Time, at []time.Time) []float64 {
	secs := make([]float64, 0, len(at))
	prev := from
	for _, t := range at {
		r.tr.record(name, parent, req, prev, t)
		secs = append(secs, t.Sub(prev).Seconds())
		prev = t
	}
	return secs
}

// graphRecall is the share of a seeded sample of nodes' graph neighbours
// that are among their exact κ nearest neighbours: useful over attempted
// neighbour slots.
func graphRecall(data *vec.Matrix, g *knngraph.Graph, seed int64) float64 {
	nodes := sample(seed, data.N, graphRecallSample)
	queries := make([][]float32, len(nodes))
	for i, n := range nodes {
		queries[i] = data.Row(n)
	}
	exact := exactTopK(rowsOf(data), queries, g.Kappa, func(q int, id int32) bool { return int(id) == nodes[q] })
	useful, attempted := 0, 0
	for i, n := range nodes {
		got := make([]int32, len(g.Lists[n]))
		for j, nb := range g.Lists[n] {
			got[j] = nb.ID
		}
		useful += overlap(got, exact[i])
		attempted += len(exact[i])
	}
	return float64(useful) / float64(attempted)
}
