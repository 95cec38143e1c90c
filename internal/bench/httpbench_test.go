package bench

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"gkmeans"
	"gkmeans/internal/dataset"
	"gkmeans/internal/server"
	"gkmeans/internal/vec"
)

func buildIndexForBench(t *testing.T, data *vec.Matrix) *gkmeans.Index {
	t.Helper()
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(8), gkmeans.WithXi(20), gkmeans.WithTau(3), gkmeans.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// The in-process cache sweep must produce two comparable runs: identical
// workload, cache off then on, with the cache-on pass actually hitting.
func TestRunHTTPCachePairSmoke(t *testing.T) {
	cfg := HTTPBenchConfig{
		Concurrency: 4, Requests: 200, Distinct: 16, Warmup: 16,
		TopK: 5, Ef: 32, Seed: 1,
	}
	rep, err := RunHTTPCachePair(cfg, 600, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != httpReportSchema || len(rep.Runs) != 2 {
		t.Fatalf("report: schema=%d runs=%d", rep.Schema, len(rep.Runs))
	}
	off, on := rep.Runs[0], rep.Runs[1]
	if off.Label != "cache-off" || on.Label != "cache-on" {
		t.Fatalf("run labels %q/%q", off.Label, on.Label)
	}
	if off.Errors != 0 || on.Errors != 0 {
		t.Fatalf("errors: off=%d on=%d", off.Errors, on.Errors)
	}
	if off.CacheHits != 0 {
		t.Fatalf("cache-off run recorded %d hits", off.CacheHits)
	}
	// Warmup primed every distinct query, so the timed cache-on pass is all
	// hits.
	if on.CacheHits != int64(cfg.Requests) || on.CacheMisses != 0 {
		t.Fatalf("cache-on run: hits=%d misses=%d, want %d/0", on.CacheHits, on.CacheMisses, cfg.Requests)
	}
	if off.P50US <= 0 || on.P50US <= 0 || off.QPS <= 0 {
		t.Fatalf("degenerate latency stats: %+v / %+v", off, on)
	}
	if got := rep.Summary().Render(); !strings.Contains(got, "cache-on") {
		t.Fatalf("summary table missing runs:\n%s", got)
	}
}

// Live mode drives an external daemon; here, a loopback server stands in.
func TestRunHTTPBenchLive(t *testing.T) {
	srv := server.New(server.Config{CacheSize: 128})
	all := dataset.SIFTLike(300, 4)
	idx := buildIndexForBench(t, all)
	if err := srv.RegisterIndex("live", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := RunHTTPBench(HTTPBenchConfig{
		BaseURL: ts.URL, Index: "live",
		Concurrency: 2, Requests: 60, Distinct: 8, Warmup: 8,
		TopK: 3, Ef: 16, Seed: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseURL != ts.URL || rep.Dim != all.Dim || len(rep.Runs) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	run := rep.Runs[0]
	if run.Label != "live" || run.Errors != 0 || run.Requests != 60 {
		t.Fatalf("run = %+v", run)
	}
	if run.CacheHits == 0 {
		t.Fatal("repeated workload against a cached server produced no hits")
	}

	// An unknown index is an error, not a hang.
	if _, err := RunHTTPBench(HTTPBenchConfig{BaseURL: ts.URL, Index: "nope"}, nil); err == nil {
		t.Fatal("bench against unknown index succeeded")
	}
}
