// Serving an index over HTTP — the gkserved stack in one process.
//
// The example builds an index over SIFT-like descriptors, persists it,
// starts the gkserved server on a random local port and talks to it with
// the typed Go client: health check, index listing, single-query searches
// fired from many goroutines, one explicit batch search, the clustering
// refusal a sharded index answers with, and the serving stats.
//
// Run with: go run ./examples/serve
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/dataset"
	"gkmeans/internal/server"
)

func main() {
	ctx := context.Background()

	// Build and persist an index, exactly as an offline pipeline would.
	// WithShards splits the build into two independently constructed
	// sub-indexes; serving, search and stats below are oblivious to it —
	// drop the option and everything behaves identically.
	all := dataset.SIFTLike(5200, 41)
	data, queries := gkmeans.Split(all, 200)
	idx, err := gkmeans.Build(ctx, data,
		gkmeans.WithKappa(20), gkmeans.WithTau(8), gkmeans.WithSeed(41),
		gkmeans.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gkserved-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sift.gkx")
	if err := gkmeans.SaveIndex(path, idx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d × %d, saved to %s\n", idx.N(), idx.Dim(), path)

	// Start gkserved in-process on a random port. `cmd/gkserved` wraps
	// exactly this server; -index sift=sift.gkx replaces RegisterFile.
	srv := server.New(server.Config{})
	if err := srv.RegisterFile("sift", path); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	// Query it with the typed client.
	cl := client.New("http://" + ln.Addr().String())
	if err := cl.Health(ctx); err != nil {
		log.Fatal(err)
	}
	infos, err := cl.Indexes(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving: %+v\n", infos)

	// 64 goroutines of single-query traffic, each query its own search
	// fanned out across the shards.
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries.Row((g*4 + i) % queries.N)
				if _, err := cl.Search(ctx, "sift", q, 10, 64); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	fmt.Printf("256 concurrent single-query searches in %v\n",
		time.Since(start).Round(time.Millisecond))

	// One explicit batch search: 32 queries in one SearchBatch call.
	rows := make([][]float32, 32)
	for i := range rows {
		rows[i] = queries.Row(i)
	}
	batch, err := cl.SearchBatch(ctx, "sift", rows, 10, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch search: %d result lists, first hit id=%d dist=%.1f\n",
		len(batch), batch[0][0].ID, batch[0][0].Dist)

	// Clustering needs a global k-NN graph, which a sharded index does not
	// have: the server refuses with a 400 the typed client surfaces as an
	// *client.APIError. Serve a monolithic index to cluster server-side.
	var apiErr *client.APIError
	if _, err := cl.Cluster(ctx, "sift", client.ClusterRequest{K: 64, Seed: 41}); errors.As(err, &apiErr) {
		fmt.Printf("clustering a sharded index: HTTP %d (%s)\n", apiErr.Status, apiErr.Message)
	} else if err != nil {
		log.Fatal(err)
	}

	stats, err := cl.Stats(ctx, "sift")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d queries answered (%d batch request), %.0f distance computations per query\n",
		stats.Queries, stats.BatchRequests, float64(stats.DistanceComps)/float64(stats.Queries))

	// Drain and stop, as gkserved does on SIGTERM. Closing the client
	// first releases its kept-alive connections so the drain is instant.
	cl.Close()
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and stopped")
}
