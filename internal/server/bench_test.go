package server

import (
	"context"
	"gkmeans"
	"testing"
)

// BenchmarkDirectSearch is the baseline: goroutines hitting Index.Search
// with no coalescing.
func BenchmarkDirectSearch(b *testing.B) {
	idx, queries := sharedIndex(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			idx.Search(queries.Row(i%queries.N), 10, 64)
			i++
		}
	})
}

// BenchmarkCoalescedSearch sends the same traffic through the coalescer,
// the server's hot path for concurrent single-query requests: the gap to
// BenchmarkDirectSearch is its per-query goroutine and counters.
func BenchmarkCoalescedSearch(b *testing.B) {
	idx, queries := sharedIndex(b)
	c := newCoalescer(func() *gkmeans.Index { return idx })
	defer c.Close()
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.Search(ctx, queries.Row(i%queries.N), 10, 64, 0); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
