package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
	"gkmeans/internal/server"
	"gkmeans/internal/vec"
)

// The HTTP benchmark harness drives a running gkserved daemon through the
// Go client at a configurable concurrency and records end-to-end request
// latency — the serving numbers the in-process harness (searchbench.go)
// cannot see: JSON round-trips, load shedding and the epoch-invalidated
// query cache. The workload repeats a
// bounded pool of distinct queries, so a cache-enabled server answers the
// tail of the run from its cache and the report shows the hit-path
// latency next to the cold path.

// HTTPBenchConfig configures one HTTP harness run against a live daemon.
type HTTPBenchConfig struct {
	BaseURL string // daemon address, e.g. http://127.0.0.1:8080
	Index   string // served index name to query

	Concurrency int // client workers issuing requests (<=0 selects 8)
	Requests    int // timed search requests across all workers
	Distinct    int // distinct query pool size; the workload cycles it
	Warmup      int // untimed requests issued first (<=0 selects Distinct)

	TopK, Ef, NProbe int
	Seed             int64

	// Queries overrides the generated query pool (live mode generates
	// Distinct uniform vectors of the served index's dimensionality, which
	// exercises latency but not recall). The in-process cache sweep passes
	// real held-out corpus queries instead.
	Queries *vec.Matrix
}

// HTTPRun is one measured pass over the workload.
type HTTPRun struct {
	Label     string  `json:"label"`      // e.g. "live", "cache-off", "cache-on"
	CacheSize int     `json:"cache_size"` // server-side entries, 0 = disabled/unknown
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"` // failed requests (after client retries)
	Shed      int     `json:"shed"`   // requests answered 429 at least once
	MeanUS    float64 `json:"mean_us"`
	P50US     float64 `json:"p50_us"`
	P90US     float64 `json:"p90_us"`
	P99US     float64 `json:"p99_us"`
	QPS       float64 `json:"qps"`
	WallMS    float64 `json:"wall_ms"`

	// Server-side deltas over the timed window, from /stats. Zero when the
	// server runs without a cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// HTTPReport is the HTTP harness output; it marshals to BENCH_http.json.
type HTTPReport struct {
	Schema      int       `json:"schema"`
	CreatedAt   string    `json:"created_at"`
	GoVersion   string    `json:"go_version"`
	MaxProcs    int       `json:"maxprocs"`
	BaseURL     string    `json:"base_url,omitempty"` // empty for in-process runs
	Index       string    `json:"index"`
	N           int       `json:"n,omitempty"` // corpus rows (in-process runs)
	Dim         int       `json:"dim"`
	Concurrency int       `json:"concurrency"`
	Requests    int       `json:"requests"`
	Distinct    int       `json:"distinct"`
	TopK        int       `json:"top_k"`
	Ef          int       `json:"ef"`
	NProbe      int       `json:"nprobe,omitempty"`
	Seed        int64     `json:"seed"`
	Runs        []HTTPRun `json:"runs"`
}

// httpReportSchema versions BENCH_http.json independently of the search
// report: the two evolve on different axes.
const httpReportSchema = 1

// RunHTTPBench measures a live daemon: one timed pass over the repeated
// query workload, recorded as a single "live" run.
func RunHTTPBench(cfg HTTPBenchConfig, logf func(format string, args ...any)) (*HTTPReport, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("bench: http mode needs a base URL")
	}
	if cfg.Index == "" {
		return nil, fmt.Errorf("bench: http mode needs an index name")
	}
	normalizeHTTPConfig(&cfg)

	c := client.New(cfg.BaseURL)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	infos, err := c.Indexes(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: listing indexes on %s: %w", cfg.BaseURL, err)
	}
	dim := 0
	for _, info := range infos {
		if info.Name == cfg.Index {
			dim = info.Dim
		}
	}
	if dim == 0 {
		return nil, fmt.Errorf("bench: index %q not served by %s", cfg.Index, cfg.BaseURL)
	}
	if cfg.Queries == nil {
		cfg.Queries = dataset.Uniform(cfg.Distinct, dim, cfg.Seed)
	}

	rep := newHTTPReport(cfg, dim)
	rep.BaseURL = cfg.BaseURL
	logf("http bench: %s index=%s dim=%d, %d requests × %d workers over %d distinct queries",
		cfg.BaseURL, cfg.Index, dim, cfg.Requests, cfg.Concurrency, cfg.Queries.N)
	run, err := httpRun(c, "live", 0, cfg, logf)
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, *run)
	return rep, nil
}

// RunHTTPCachePair builds a small index in-process, serves it twice through
// the full HTTP stack — once with the query cache disabled and once with it
// enabled — and measures the identical workload against both. The two runs
// land in one report, so the committed file itself records the p50 saving
// the cache buys on a repeated-query workload.
func RunHTTPCachePair(cfg HTTPBenchConfig, n, cacheSize int,
	logf func(format string, args ...any)) (*HTTPReport, error) {

	if logf == nil {
		logf = func(string, ...any) {}
	}
	normalizeHTTPConfig(&cfg)
	if cfg.Index == "" {
		cfg.Index = "bench"
	}

	info, err := dataset.ByName("sift")
	if err != nil {
		return nil, err
	}
	m := info.Gen(n, cfg.Seed)
	if m.N <= cfg.Distinct {
		return nil, fmt.Errorf("bench: corpus of %d rows cannot spare %d distinct queries", m.N, cfg.Distinct)
	}
	data, queries := splitCorpus(m, cfg.Distinct)
	cfg.Queries = queries
	logf("corpus sift: %d×%d data, %d held-out distinct queries", data.N, data.Dim, queries.N)

	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(10), gkmeans.WithXi(25), gkmeans.WithTau(4),
		gkmeans.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}

	rep := newHTTPReport(cfg, data.Dim)
	rep.N = data.N
	for _, pass := range []struct {
		label string
		size  int
	}{{"cache-off", 0}, {"cache-on", cacheSize}} {
		run, err := servePass(idx, pass.label, pass.size, cfg, logf)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, *run)
	}
	return rep, nil
}

// servePass serves idx over a loopback HTTP listener with the given cache
// size and measures one workload pass against it.
func servePass(idx *gkmeans.Index, label string, cacheSize int, cfg HTTPBenchConfig,
	logf func(format string, args ...any)) (*HTTPRun, error) {

	srv := server.New(server.Config{CacheSize: cacheSize})
	if err := srv.RegisterIndex(cfg.Index, idx); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginShutdown()

	c := client.New(ts.URL)
	defer c.Close()
	return httpRun(c, label, cacheSize, cfg, logf)
}

// httpRun issues the workload through c: Warmup untimed requests (which also
// primes a server-side cache exactly once per distinct query), then
// cfg.Requests timed ones spread over cfg.Concurrency workers, cycling the
// distinct query pool. Per-request latencies land in a preallocated slice —
// one slot per request, no locking on the hot path.
func httpRun(c *client.Client, label string, cacheSize int, cfg HTTPBenchConfig,
	logf func(format string, args ...any)) (*HTTPRun, error) {

	ctx := context.Background()
	query := func(i int) []float32 { return cfg.Queries.Row(i % cfg.Queries.N) }
	search := func(i int) error {
		_, err := c.SearchNProbe(ctx, cfg.Index, query(i), cfg.TopK, cfg.Ef, cfg.NProbe)
		return err
	}

	for i := 0; i < cfg.Warmup; i++ {
		if err := search(i); err != nil {
			return nil, fmt.Errorf("bench: warmup request %d: %w", i, err)
		}
	}

	before, err := c.Stats(ctx, cfg.Index)
	if err != nil {
		return nil, fmt.Errorf("bench: reading stats before run: %w", err)
	}

	lat := make([]time.Duration, cfg.Requests)
	var failed, shed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.Requests; i += cfg.Concurrency {
				r0 := time.Now()
				err := search(i)
				lat[i] = time.Since(r0)
				if err != nil {
					mu.Lock()
					failed++
					var apiErr *client.APIError
					if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
						shed++
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)

	after, err := c.Stats(ctx, cfg.Index)
	if err != nil {
		return nil, fmt.Errorf("bench: reading stats after run: %w", err)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var total time.Duration
	for _, l := range lat {
		total += l
	}
	run := &HTTPRun{
		Label:       label,
		CacheSize:   cacheSize,
		Requests:    cfg.Requests,
		Errors:      int(failed),
		Shed:        int(shed),
		MeanUS:      total.Seconds() * 1e6 / float64(cfg.Requests),
		P50US:       quantileUS(lat, 0.50),
		P90US:       quantileUS(lat, 0.90),
		P99US:       quantileUS(lat, 0.99),
		QPS:         float64(cfg.Requests) / wall.Seconds(),
		WallMS:      wall.Seconds() * 1e3,
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheMisses: after.CacheMisses - before.CacheMisses,
	}
	logf("%-9s p50=%.0fµs p90=%.0fµs p99=%.0fµs %.0f qps (hits=%d misses=%d errors=%d)",
		label, run.P50US, run.P90US, run.P99US, run.QPS, run.CacheHits, run.CacheMisses, run.Errors)
	return run, nil
}

func normalizeHTTPConfig(cfg *HTTPBenchConfig) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 2000
	}
	if cfg.Distinct <= 0 {
		cfg.Distinct = 64
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Distinct
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
}

func newHTTPReport(cfg HTTPBenchConfig, dim int) *HTTPReport {
	return &HTTPReport{
		Schema:      httpReportSchema,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		Index:       cfg.Index,
		Dim:         dim,
		Concurrency: cfg.Concurrency,
		Requests:    cfg.Requests,
		Distinct:    cfg.Distinct,
		TopK:        cfg.TopK,
		Ef:          cfg.Ef,
		NProbe:      cfg.NProbe,
		Seed:        cfg.Seed,
	}
}

// Summary renders the HTTP report as an aligned table.
func (r *HTTPReport) Summary() *Table {
	where := r.BaseURL
	if where == "" {
		where = "in-process"
	}
	t := &Table{
		Title: fmt.Sprintf("http benchmark — %s index=%s dim=%d, %d req × %d workers, %d distinct",
			where, r.Index, r.Dim, r.Requests, r.Concurrency, r.Distinct),
		Header: []string{"run", "cache", "p50 µs", "p90 µs", "p99 µs", "qps", "hits", "misses", "errors"},
	}
	for _, run := range r.Runs {
		t.AddRow(run.Label, d(run.CacheSize), f(run.P50US), f(run.P90US), f(run.P99US),
			f(run.QPS), fmt.Sprint(run.CacheHits), fmt.Sprint(run.CacheMisses), d(run.Errors))
	}
	return t
}
