package server

import (
	"context"
	"errors"
	"sync/atomic"

	"gkmeans"
)

// ErrDraining is returned for work submitted after shutdown has begun.
var ErrDraining = errors.New("server: draining, not accepting new work")

// coalescer runs the single-query searches of one index: it refuses new
// queries once closed, counts the ones it accepts, and lets a caller give
// up when its context ends. Every query runs as its own Index.SearchNProbe
// call, which keeps a query's parallel shard fan-out and lets concurrent
// queries use every core. Merging concurrent queries into SearchBatch calls
// was measured, on sharded and monolithic indexes from 1 to 32 concurrent
// callers, and was never faster, so nothing is merged; the
// gkserved_coalesced_batches_total metric counts each search as a batch of
// one.
//
// The coalescer holds a provider function, not an index value: the serving
// layer swaps in new index epochs (inserts, deletes, compaction), and a
// search resolves the index when it starts, so it always searches the
// newest epoch.
type coalescer struct {
	get     func() *gkmeans.Index
	closed  atomic.Bool
	queries atomic.Int64 // single queries accepted, each run as one search
}

// newCoalescer wires a coalescer to an index provider.
func newCoalescer(get func() *gkmeans.Index) *coalescer {
	return &coalescer{get: get}
}

// Search answers one query. It returns when the search ends or ctx is
// done, whichever is first. A search cannot be interrupted, so it runs on
// its own goroutine: a caller whose deadline passes is answered at once,
// and the search finishes in the background with its result dropped.
func (c *coalescer) Search(ctx context.Context, q []float32, topK, ef, nprobe int) ([]gkmeans.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.closed.Load() {
		return nil, ErrDraining
	}
	c.queries.Add(1)
	out := make(chan []gkmeans.Neighbor, 1) // buffered: the send never blocks on a caller that gave up
	go func() { out <- c.get().SearchNProbe(q, topK, ef, nprobe) }()
	select {
	case res := <-out:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops accepting new queries, the drain step of graceful shutdown.
// Searches already running finish and answer their callers. Idempotent.
func (c *coalescer) Close() { c.closed.Store(true) }

// Queries returns how many queries the coalescer has accepted.
func (c *coalescer) Queries() int64 { return c.queries.Load() }
