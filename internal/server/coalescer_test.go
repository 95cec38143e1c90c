package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gkmeans"
	"gkmeans/internal/dataset"
)

// testIndex builds one small deterministic index per test binary run.
var (
	testIdxOnce sync.Once
	testIdx     *gkmeans.Index
	testQueries *gkmeans.Matrix
)

func sharedIndex(t testing.TB) (*gkmeans.Index, *gkmeans.Matrix) {
	t.Helper()
	testIdxOnce.Do(func() {
		all := dataset.SIFTLike(540, 7)
		data, queries := dataset.Split(all, 40)
		idx, err := gkmeans.Build(context.Background(), data,
			gkmeans.WithKappa(10), gkmeans.WithXi(25), gkmeans.WithTau(4), gkmeans.WithSeed(3))
		if err != nil {
			panic(err)
		}
		testIdx, testQueries = idx, queries
	})
	return testIdx, testQueries
}

func neighborsEqual(a, b []gkmeans.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// heldRunner wraps an index provider so a test can hold searches running.
// Until release, every call to get announces itself on entered and blocks;
// each search calls get once, when it starts, so a test can see which
// searches are running at once and can make a caller's context end while
// its search is still running, with no reliance on timing.
type heldRunner struct {
	inner   func() *gkmeans.Index
	entered chan struct{}
	gate    chan struct{}
}

func holdRunner(inner func() *gkmeans.Index) *heldRunner {
	// entered holds one token per held search; 16 is above the most
	// searches any test holds at once, so announcing never blocks.
	return &heldRunner{inner: inner, entered: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (h *heldRunner) get() *gkmeans.Index {
	select {
	case <-h.gate:
	default:
		h.entered <- struct{}{}
		<-h.gate
	}
	return h.inner()
}

func (h *heldRunner) release() { close(h.gate) }

// awaitRunning blocks until n more searches are held inside get.
func (h *heldRunner) awaitRunning(t *testing.T, n int) {
	t.Helper()
	for range n {
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("search never started running")
		}
	}
}

// heldCoalescer is a coalescer over the shared index whose searches start
// held.
func heldCoalescer(t *testing.T) (*coalescer, *heldRunner) {
	idx, _ := sharedIndex(t)
	h := holdRunner(func() *gkmeans.Index { return idx })
	return newCoalescer(h.get), h
}

type searchResult struct {
	res []gkmeans.Neighbor
	err error
}

// searchAsync submits one query on its own goroutine.
func searchAsync(ctx context.Context, c *coalescer, q []float32, topK, ef int) <-chan searchResult {
	done := make(chan searchResult, 1)
	go func() {
		res, err := c.Search(ctx, q, topK, ef, 0)
		done <- searchResult{res, err}
	}()
	return done
}

// expectDirect checks that an answer through the coalescer is
// bit-identical to a direct SearchNProbe call.
func expectDirect(t *testing.T, got searchResult, q []float32, topK, ef int) {
	t.Helper()
	idx, _ := sharedIndex(t)
	if got.err != nil {
		t.Fatal(got.err)
	}
	if want := idx.SearchNProbe(q, topK, ef, 0); !neighborsEqual(got.res, want) {
		t.Fatalf("topK=%d ef=%d: coalescer result differs from direct SearchNProbe", topK, ef)
	}
}

func expectQueries(t *testing.T, c *coalescer, want int64) {
	t.Helper()
	if got := c.Queries(); got != want {
		t.Fatalf("coalescer accepted %d queries, want %d", got, want)
	}
}

// Queries answered through the coalescer must be bit-identical to direct
// Index.Search calls, with none dropped, when many goroutines hammer it.
func TestCoalescerMatchesDirectSearchUnderLoad(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx })
	defer c.Close()

	const goroutines, perG = 32, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := queries.Row((g*perG + i) % queries.N)
				got, err := c.Search(context.Background(), q, 10, 64, 0)
				if err != nil {
					errs <- err
					return
				}
				if want := idx.Search(q, 10, 64); !neighborsEqual(got, want) {
					errs <- fmt.Errorf("g%d i%d: coalescer result differs from direct Index.Search", g, i)
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
	expectQueries(t, c, goroutines*perG)
}

// Searches with the same parameters run at the same time: none waits for
// another to finish, so concurrent queries use every core.
func TestCoalescerRunsSearchesConcurrently(t *testing.T) {
	_, queries := sharedIndex(t)
	const n = 4
	c, h := heldCoalescer(t)

	done := make([]<-chan searchResult, n)
	for i := range done {
		done[i] = searchAsync(context.Background(), c, queries.Row(i), 10, 64)
	}
	h.awaitRunning(t, n) // all n are inside the index provider at once
	h.release()
	for i, d := range done {
		expectDirect(t, <-d, queries.Row(i), 10, 64)
	}
	expectQueries(t, c, n)
}

// Queries with different (topK, ef) parameters running at the same time
// each get the answer for their own parameters.
func TestCoalescerGroupsByParams(t *testing.T) {
	_, queries := sharedIndex(t)
	c, h := heldCoalescer(t)

	params := [][2]int{{5, 32}, {10, 64}, {10, 0}}
	var done [][]<-chan searchResult
	for _, p := range params {
		done = append(done, []<-chan searchResult{
			searchAsync(context.Background(), c, queries.Row(0), p[0], p[1]),
			searchAsync(context.Background(), c, queries.Row(1), p[0], p[1]),
		})
	}
	h.awaitRunning(t, 2*len(params))
	h.release()

	for i, p := range params {
		for j, d := range done[i] {
			expectDirect(t, <-d, queries.Row(j), p[0], p[1])
		}
	}
	expectQueries(t, c, 2*int64(len(params)))
}

// A caller whose context ends while its search runs gets the context error
// at once, without waiting for the search; a caller whose context ended
// before it arrived is not accepted at all.
func TestCoalescerContextCancellation(t *testing.T) {
	_, queries := sharedIndex(t)
	c, h := heldCoalescer(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := searchAsync(ctx, c, queries.Row(1), 5, 32)
	h.awaitRunning(t, 1)
	cancel()
	if got := <-cancelled; got.err != context.Canceled {
		t.Fatalf("cancelled caller: got %v, want context.Canceled", got.err)
	}

	// A deadline that passes mid-search answers the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	expired := searchAsync(dctx, c, queries.Row(2), 5, 32)
	h.awaitRunning(t, 1)
	if got := <-expired; got.err != context.DeadlineExceeded {
		t.Fatalf("expired caller: got %v, want context.DeadlineExceeded", got.err)
	}
	h.release()

	if _, err := c.Search(ctx, queries.Row(0), 5, 32, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled search: got %v, want context.Canceled", err)
	}
	expectQueries(t, c, 2)
}

// Close drains: callers whose searches are running get results, later
// callers get ErrDraining.
func TestCoalescerCloseDrains(t *testing.T) {
	_, queries := sharedIndex(t)
	c, h := heldCoalescer(t)

	running := []<-chan searchResult{
		searchAsync(context.Background(), c, queries.Row(0), 5, 32),
		searchAsync(context.Background(), c, queries.Row(1), 5, 32),
	}
	h.awaitRunning(t, len(running))
	c.Close()
	if _, err := c.Search(context.Background(), queries.Row(3), 5, 32, 0); err != ErrDraining {
		t.Fatalf("search after Close: got %v, want ErrDraining", err)
	}
	c.Close() // idempotent
	h.release()

	for i, d := range running {
		expectDirect(t, <-d, queries.Row(i), 5, 32)
	}
	expectQueries(t, c, int64(len(running)))
}

// Nothing is batched: a lone query runs as its own search, identical to a
// direct one, and counts once.
func TestCoalescerDisabled(t *testing.T) {
	idx, queries := sharedIndex(t)
	c := newCoalescer(func() *gkmeans.Index { return idx })
	q := queries.Row(1)
	got, err := c.Search(context.Background(), q, 7, 40, 0)
	expectDirect(t, searchResult{got, err}, q, 7, 40)
	expectQueries(t, c, 1)
	c.Close()
	if _, err := c.Search(context.Background(), q, 7, 40, 0); err != ErrDraining {
		t.Fatalf("search after Close: got %v, want ErrDraining", err)
	}
}
