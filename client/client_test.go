package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
	"gkmeans/internal/server"
)

// e2e is a full serving stack: an index built over synthetic data, saved
// and hot-loaded into a gkserved server on a real random-port listener.
type e2e struct {
	idx     *gkmeans.Index
	queries *gkmeans.Matrix
	srv     *server.Server
	hs      *http.Server
	cl      *client.Client
}

func startE2E(t *testing.T, cfg server.Config) *e2e {
	t.Helper()
	all := dataset.SIFTLike(540, 11)
	data, queries := dataset.Split(all, 40)
	idx, err := gkmeans.Build(context.Background(), data,
		gkmeans.WithKappa(10), gkmeans.WithXi(25), gkmeans.WithTau(4), gkmeans.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e2e.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}

	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0") // a random free port
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	cl := client.New("http://" + ln.Addr().String())
	if _, err := cl.Register(context.Background(), "sift", path); err != nil {
		t.Fatal(err)
	}
	return &e2e{idx: idx, queries: queries, srv: srv, hs: hs, cl: cl}
}

func sameNeighbors(got []client.Neighbor, want []gkmeans.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbours, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			return fmt.Errorf("neighbour %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// The acceptance path: a saved index served over a real listener answers
// batched HTTP searches identically to in-process Index.Search.
func TestEndToEndSearchMatchesInProcess(t *testing.T) {
	e := startE2E(t, server.Config{})
	ctx := context.Background()

	if err := e.cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	infos, err := e.cl.Indexes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "sift" || infos[0].N != e.idx.N() {
		t.Fatalf("indexes = %+v", infos)
	}

	rows := make([][]float32, e.queries.N)
	for i := range rows {
		rows[i] = e.queries.Row(i)
	}
	batch, err := e.cl.SearchBatch(ctx, "sift", rows, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	for qi, res := range batch {
		if err := sameNeighbors(res, e.idx.Search(rows[qi], 10, 64)); err != nil {
			t.Fatalf("batch query %d: %v", qi, err)
		}
	}

	for qi := 0; qi < 10; qi++ {
		res, err := e.cl.Search(ctx, "sift", rows[qi], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameNeighbors(res, e.idx.Search(rows[qi], 10, 64)); err != nil {
			t.Fatalf("single query %d: %v", qi, err)
		}
	}

	// An empty batch answers locally: zero lists, no error, no request.
	if empty, err := e.cl.SearchBatch(ctx, "sift", nil, 10, 64); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch = %v, %v", empty, err)
	}

	// API errors surface as typed *APIError with the server's status.
	var apiErr *client.APIError
	if _, err := e.cl.Search(ctx, "nosuch", rows[0], 5, 32); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown index error = %v", err)
	}
	if _, err := e.cl.Search(ctx, "sift", []float32{1, 2}, 5, 32); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("dimension mismatch error = %v", err)
	}
}

// 32 goroutines hammering single-query search over a real listener: every
// request answered and every result identical to in-process search.
func TestEndToEndConcurrentCoalescing(t *testing.T) {
	e := startE2E(t, server.Config{})
	ctx := context.Background()

	const goroutines, perG = 32, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := e.queries.Row((g*perG + i) % e.queries.N)
				res, err := e.cl.Search(ctx, "sift", q, 10, 64)
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if err := sameNeighbors(res, e.idx.Search(q, 10, 64)); err != nil {
					errs <- fmt.Errorf("g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats, err := e.cl.Stats(ctx, "sift")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != goroutines*perG {
		t.Fatalf("stats.Queries = %d, want %d (dropped requests)", stats.Queries, goroutines*perG)
	}
}

// Clustering over HTTP matches the library's own distortion accounting.
func TestEndToEndCluster(t *testing.T) {
	e := startE2E(t, server.Config{})
	ctx := context.Background()

	res, err := e.cl.Cluster(ctx, "sift", client.ClusterRequest{K: 8, Seed: 5, WithLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 8 || len(res.Labels) != e.idx.N() || res.Distortion <= 0 {
		t.Fatalf("cluster response %+v", res)
	}
	want, err := e.idx.Cluster(ctx, 8, gkmeans.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Labels {
		if l != want.Labels[i] {
			t.Fatalf("label %d = %d, want %d (served clustering differs)", i, l, want.Labels[i])
		}
	}
}

// Graceful shutdown: draining flips health and search to 503 while the
// listener finishes in-flight work.
func TestEndToEndGracefulShutdown(t *testing.T) {
	e := startE2E(t, server.Config{})
	ctx := context.Background()

	e.srv.BeginShutdown()

	// The default client retries 503s (a restarting server would recover);
	// here the drain is permanent, so the retried error still surfaces.
	var apiErr *client.APIError
	if err := e.cl.Health(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("health during drain = %v", err)
	}
	if _, err := e.cl.Search(ctx, "sift", e.queries.Row(0), 5, 32); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("search during drain = %v", err)
	}

	// Release the client's kept-alive connections; without this the
	// server's drain waits ~5s for half-open idle connections.
	e.cl.Close()
	shutdownCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("listener shutdown: %v", err)
	}
}

// The client retries transient 503s and connection-level failures, and
// gives up immediately on definitive 4xx verdicts.
func TestClientRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	cl := client.New(ts.URL, client.WithRetries(3), client.WithRetryBackoff(time.Millisecond))
	if err := cl.Health(context.Background()); err != nil {
		t.Fatalf("retried health check failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}

	// 404 is definitive: exactly one attempt.
	calls.Store(0)
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown index"}`, http.StatusNotFound)
	}))
	defer notFound.Close()
	cl = client.New(notFound.URL, client.WithRetries(3), client.WithRetryBackoff(time.Millisecond))
	var apiErr *client.APIError
	if _, err := cl.Stats(context.Background(), "x"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("stats error = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("definitive 404 retried: %d calls", got)
	}

	// Register never retries: a lost response may mask an applied
	// registration, so exactly one attempt goes out even on 503.
	calls.Store(0)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
	}))
	defer flaky.Close()
	cl = client.New(flaky.URL, client.WithRetries(3), client.WithRetryBackoff(time.Millisecond))
	if _, err := cl.Register(context.Background(), "x", "x.gkx"); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("register error = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("register retried: %d calls, want 1", got)
	}

	// Context cancellation cuts the retry loop short.
	dead := client.New("http://127.0.0.1:1", client.WithRetries(50), client.WithRetryBackoff(20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := dead.Health(ctx); err == nil {
		t.Fatal("health against dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("retry loop ignored context for %v", elapsed)
	}
}
