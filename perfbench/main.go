// Command perfbench is the repository's benchmark. One run generates its
// inputs from a seed and drives three phases in one process:
//
//   - cluster: the paper's job, gkmeans.Build with WithClusters(1000) over
//     20,000 SIFT-like rows;
//   - search: in-process Index.Search and SearchBatch over that graph;
//   - serve: gkserved's handler on a loopback listener under an open-loop
//     mix of searches, inserts and deletes, then a closed-loop peak.
//
// The workload picks the serve query stream. With -trace 0 the run prints
// the end-to-end metrics; with -trace 1 it times the benchmark's own calls
// into each module as spans, prints the per-layer metrics and writes the
// spans under .perfbench/traces. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
// METRICS.md maps every metric to its layer and workload.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload zipf --seed 1 --seconds 28 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

type workload string

const (
	// workloadZipf draws serve searches Zipf(s=1) from a pool of 4,096
	// queries, so repeats reach the query cache.
	workloadZipf workload = "zipf"
	// workloadCold sends every serve search with a fresh query, so the
	// query cache never hits.
	workloadCold workload = "cold"
)

const (
	topK = 10
	ef   = 64
	// setupReps is how many times a run repeats each set-up step that
	// setup_s takes the median of.
	setupReps = 3
	// offeredRate is the serve phase's open-loop rate in ops/s.
	offeredRate = 300
)

// outDir holds everything a run writes, relative to the working directory.
const outDir = ".perfbench"

type run struct {
	ctx     context.Context
	w       workload
	seed    int64
	seconds int
	in      *inputs
	res     *results
	tr      *tracer // nil when untraced
	work    string  // this run's working directory, removed at the end
	reqs    atomic.Int64
}

// req returns a fresh request id for a traced operation.
func (r *run) req() int64 { return r.reqs.Add(1) }

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "serve query stream: zipf or cold")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 28, "length of the serve phase's open loop")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workload(*wl)
	if w != workloadZipf && w != workloadCold {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want zipf or cold)\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	r := &run{ctx: context.Background(), w: w, seed: *seed, seconds: *seconds, res: newResults()}
	set := endToEnd
	if *trace == 1 {
		r.tr = newTracer()
		set = perLayer
	}
	env := envStamp()
	fmt.Fprintf(stdout, "env: %s\n", env)
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%d trace=%d rate=%d ops/s\n", w, *seed, *seconds, *trace, offeredRate)

	r.work = filepath.Join(outDir, "work", fmt.Sprintf("%s-%d-%d", w, *seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	err := r.execute()
	os.RemoveAll(r.work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if r.tr != nil {
		budget(stdout, r.tr.spans)
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w, *seed))
		if err := writeTrace(path, env, r.tr.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 2
		}
		fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(r.tr.spans), path)
	}
	if err := r.res.write(stdout, set); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if len(r.res.checks) > 0 {
		return 1
	}
	return 0
}

// execute runs the three phases and the run-wide metrics. The search
// phase's timed windows sit between the others: after the clustering job,
// after the serve index is built, and after the serve phase.
func (r *run) execute() error {
	r.in = makeInputs(r.w, r.seed, r.seconds, offeredRate)
	g, err := r.clusterPhase()
	if err != nil {
		return err
	}
	search, searchSetup, err := r.newSearchBench(g)
	if err != nil {
		return err
	}
	search.window()
	served, build, err := r.buildServed()
	if err != nil {
		return err
	}
	search.window()
	starts, err := r.servePhase(served)
	if err != nil {
		return err
	}
	search.window()
	if err := search.report(); err != nil {
		return err
	}
	r.res.set("setup_s", searchSetup+build+starts)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.res.set("peak_rss_mb", rss)
	r.res.set("success_rate", 1-float64(r.res.failed)/float64(max(r.res.attempted, 1)))
	r.res.notef("error_rate: %d failed of %d attempted operations and checks", r.res.failed, r.res.attempted)
	return nil
}
