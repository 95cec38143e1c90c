package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// metric is a reported figure: its name and unit. The names and units here
// are the ones BENCHMARK.json declares; metrics_test.go keeps the two equal.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the library or of gkserved sees. Every
// untraced run reports all of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cluster_s", "s"},
	{"distortion", "sqdist"},
	{"search_p50_us", "us"},
	{"search_p99_us", "us"},
	{"batch_qps", "1/s"},
	{"search_recall_at_10", "ratio"},
	{"serve_search_p50_us", "us"},
	{"serve_recall_at_10", "ratio"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's figures, one group per module the
// benchmark calls into. METRICS.md says which end-to-end metric each should
// move.
var perLayer = []metric{
	{"core.graph_s", "s"},
	{"core.graph_round_s", "s"},
	{"core.graph_dist_comps", "count"},
	{"core.graph_recall", "ratio"},
	{"core.cluster_init_s", "s"},
	{"core.cluster_epoch_s", "s"},
	{"core.cluster_epochs", "count"},
	{"core.cluster_candidates", "count"},
	{"anns.searcher_build_s", "s"},
	{"anns.search_us", "us"},
	{"anns.dist_comps_per_query", "count"},
	{"anns.expanded_per_query", "count"},
	{"anns.entry_points", "count"},
	{"vec.kernel_ns_f32", "ns"},
	{"vec.kernel_ns_u8", "ns"},
	{"vec.bytes_per_query_f32", "bytes"},
	{"vec.bytes_per_query_u8", "bytes"},
	{"gkmeans.search_us", "us"},
	{"gkmeans.shards_probed_per_query", "count"},
	{"gkmeans.append_s", "s"},
	{"gkmeans.compact_s", "s"},
	{"gkmeans.load_s", "s"},
	{"gkmeans.save_s", "s"},
	{"server.handler_p50_us", "us"},
	{"server.handler_p99_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.repeat_share", "ratio"},
	{"server.batch_size", "count"},
	{"server.flushes", "count"},
	{"server.compactions", "count"},
	{"server.shed", "count"},
	{"server.deadline_exceeded", "count"},
	{"wal.append_us", "us"},
	{"client.roundtrip_us", "us"},
	{"client.transport_us", "us"},
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"bench.gen_late_p50_us", "us"},
	{"bench.gen_late_p99_us", "us"},
	{"bench.trace_overhead", "ratio"},
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1,000 samples.
const minBeyond = 10

// tailPercentiles are the percentiles tried, highest first, when a tail is
// reported.
var tailPercentiles = []float64{99, 90, 50}

// rankIndex is the 0-based nearest-rank index of percentile p among n
// sorted samples.
func rankIndex(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// beyond is how many of n samples lie above percentile p.
func beyond(n int, p float64) int { return n - rankIndex(n, p) - 1 }

// dist summarises a sample of measurements.
type dist struct {
	n     int
	p50   float64
	tailP float64 // the highest percentile with minBeyond samples above it; 0 if none
	tail  float64
}

// summarize sorts xs in place and returns its median and the highest
// percentile of tailPercentiles that has at least minBeyond samples beyond
// it. With fewer samples than that rule allows even for the median, tailP
// is 0 and tail repeats the median.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	d := dist{n: len(xs), p50: xs[rankIndex(len(xs), 50)]}
	d.tail = d.p50
	for _, p := range tailPercentiles {
		if beyond(len(xs), p) >= minBeyond {
			d.tailP, d.tail = p, xs[rankIndex(len(xs), p)]
			break
		}
	}
	return d
}

// median of xs (sorted in place); 0 for an empty slice.
func median(xs []float64) float64 { return summarize(xs).p50 }

// In-process CPU timings are taken from the fastest of many equal blocks
// of work. Every block repeats the same calls on the same inputs, so what
// sets them apart is the host: on a VM with a few shared cores the median
// of back-to-back blocks of 1,000 identical searches moved between 46 and
// 107 µs within a minute, in stretches of one to five seconds, on both
// vCPUs at once. Contention only ever adds time, so the fastest blocks
// show the program's own cost, and a change to the program moves every
// block alike.

// tailShare is the share of the fastest blocks pooled for a tail, so that
// its percentile has more samples beyond it than one block gives.
const tailShare = 0.1

// tailBlocks is how many of n blocks tailShare keeps, at least one.
func tailBlocks(n int) int { return max(1, int(math.Ceil(tailShare*float64(n)))) }

// fastestBlocks ranks blocks of latencies by their median, pools the k
// fastest and summarizes the pool. It sorts each block in place.
func fastestBlocks(blocks [][]float64, k int) dist {
	type block struct {
		med float64
		xs  []float64
	}
	ranked := make([]block, 0, len(blocks))
	for _, xs := range blocks {
		if len(xs) > 0 {
			ranked = append(ranked, block{median(xs), xs})
		}
	}
	slices.SortStableFunc(ranked, func(a, b block) int { return cmp.Compare(a.med, b.med) })
	var pool []float64
	for _, b := range ranked[:min(k, len(ranked))] {
		pool = append(pool, b.xs...)
	}
	return summarize(pool)
}

// results collects one run's figures, counts and failed checks.
type results struct {
	values    map[string]float64
	notes     []string // printed before the JSON line
	attempted int
	failed    int
	checks    []string // failed output checks
}

func newResults() *results { return &results{values: make(map[string]float64)} }

func (r *results) set(name string, v float64) { r.values[name] = v }

func (r *results) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check. Each one also counts as a failed
// operation, so it shows in success_rate.
func (r *results) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.attempted++
	r.failed++
}

// ops counts operations and how many of them failed.
func (r *results) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// setTail reports a distribution's tail under a p99 metric name, noting
// when too few samples forced a lower percentile.
func (r *results) setTail(name string, d dist) {
	r.set(name, d.tail)
	if d.tailP != 99 {
		r.notef("%s: p99 refused with %d samples (<%d); reported p%g instead", name, d.n, 100*minBeyond, d.tailP)
	}
}

// noteTail prints a distribution's tail by the same rule, for a figure that
// is reported but not gated.
func (r *results) noteTail(name string, d dist) {
	r.notef("%s %.1f us: p%g of %d samples; recorded, not gated", name, d.tail, d.tailP, d.n)
}

type output struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the notes, every metric of set by name with its unit, and
// last the JSON result line. It errors if a declared metric was not
// measured or a value is not finite.
func (r *results) write(w io.Writer, set []metric) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
	out := output{
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOutput, len(set)),
	}
	for _, m := range set {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.name, v)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = metricOutput{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
