package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/server"
)

const (
	indexName = "bench"
	// loadConns is how many sender goroutines, each with its own
	// connection, generate load.
	loadConns = 2
	// compactInterval replaces gkserved's 1 minute default so that a
	// 28 second open loop holds several compactor ticks.
	compactInterval = 2 * time.Second
	peakDuration    = 3 * time.Second
	// peakWindows splits the peak phase; serve_peak_qps is the median
	// window, so one stalled stretch does not set it.
	peakWindows   = 6
	warmupQueries = 32
	// identicalQueries is how many check queries are compared bit for bit
	// against in-process search, twice: once cold, once from the cache.
	identicalQueries = 64
	recallQueries    = 400
	selfFindChunk    = 128
)

// serverConfig is gkserved with the flags OPERATIONS.md gives for
// production (-data, -timeout 2s, -max-inflight 256, -cache 65536), a
// shorter compaction interval, and shipped defaults for the rest: 1 ms
// coalescer window, batches of up to 32, a 256-row memtable and the
// default compaction policy.
func serverConfig(dataDir string) server.Config {
	return server.Config{
		DataDir:         dataDir,
		RequestTimeout:  2 * time.Second,
		MaxInFlight:     256,
		CacheSize:       65536,
		CompactInterval: compactInterval,
	}
}

// serveEnv is one running server with its client.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	cl     *client.Client
	path   string        // the saved index the server loaded
	served chan struct{} // closed when the HTTP server stops
}

// buildServed builds the index the serve phase loads and returns it with
// the build time in seconds.
func (r *run) buildServed() (*gkmeans.Index, float64, error) {
	sp := r.tr.begin("gkmeans.Build", 0, r.req())
	start := time.Now()
	x, err := gkmeans.Build(r.ctx, r.in.base,
		gkmeans.WithDType(gkmeans.DTypeUint8), gkmeans.WithShards(4), gkmeans.WithRouting(4))
	build := time.Since(start)
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("serve index: %w", err)
	}
	return x, build.Seconds(), nil
}

// servePhase starts a server on the built index setupReps times, checks
// the last one against in-process search, runs the open-loop mix and the
// closed-loop peak, and checks the answers at a quiet moment. It returns
// the median start time in seconds.
func (r *run) servePhase(x *gkmeans.Index) (float64, error) {
	starts := make([]float64, setupReps)
	var env *serveEnv
	for rep := range starts {
		if env != nil {
			env.close()
		}
		var took time.Duration
		var err error
		if env, took, err = r.startServe(rep, x); err != nil {
			return 0, err
		}
		starts[rep] = took.Seconds()
	}
	defer env.close()

	sp := r.tr.begin("gkmeans.LoadIndex", 0, r.req())
	start := time.Now()
	local, err := gkmeans.LoadIndex(env.path)
	loadTime := time.Since(start)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("LoadIndex: %w", err)
	}
	r.checkIdentical(env, local)

	before, err := env.cl.Metrics(r.ctx)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	tp := r.openLoop(env)
	after, err := env.cl.Metrics(r.ctx)
	if err != nil {
		return 0, err
	}
	if err := r.quietChecks(env, tp); err != nil {
		return 0, err
	}
	r.serverCounters(before, after)
	runtime.GC()
	r.peak(env, tp)
	if r.tr != nil {
		if err := r.traceServeLayers(env, local, loadTime); err != nil {
			return 0, err
		}
	}
	return median(starts), nil
}

// startServe saves the index and loads it into a new server the way
// gkserved starts, listens on loopback and warms up.
func (r *run) startServe(rep int, x *gkmeans.Index) (*serveEnv, time.Duration, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("serve%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	req := r.req()
	root := r.tr.begin("serve.setup", 0, req)
	start := time.Now()

	path := filepath.Join(dir, "index.gkx")
	sp := r.tr.begin("gkmeans.SaveIndex", root.id, req)
	err := gkmeans.SaveIndex(path, x)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(serverConfig(filepath.Join(dir, "data")))
	sp = r.tr.begin("server.RegisterFile", root.id, req)
	err = srv.RegisterFile(indexName, path)
	sp.end()
	if err != nil {
		srv.BeginShutdown()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.BeginShutdown()
		return nil, 0, err
	}
	env := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		path:   path,
		served: make(chan struct{}),
		cl: client.New("http://"+ln.Addr().String(), client.WithRetries(0),
			client.WithHTTPClient(&http.Client{Transport: &http.Transport{
				MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns,
			}})),
	}
	go func() {
		env.hs.Serve(ln)
		close(env.served)
	}()
	sp = r.tr.begin("serve.warmup", root.id, req)
	for i := 0; i < warmupQueries; i++ {
		if _, err := env.cl.SearchNProbe(r.ctx, indexName, r.in.checkQ.Row(i), topK, ef, 0); err != nil {
			sp.end()
			env.close()
			return nil, 0, fmt.Errorf("warm-up search: %w", err)
		}
	}
	sp.end()
	took := time.Since(start)
	root.end()
	r.res.ops(warmupQueries, 0)
	return env, took, nil
}

// close drains the server and waits until it has stopped.
func (e *serveEnv) close() {
	e.srv.BeginShutdown()
	e.cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
}

// checkIdentical compares HTTP answers with in-process SearchNProbe on the
// same saved index, bit for bit, twice: the second pass is answered from
// the query cache (ARCHITECTURE invariant 8).
func (r *run) checkIdentical(env *serveEnv, local *gkmeans.Index) {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < identicalQueries; i++ {
			q := r.in.checkQ.Row(i)
			got, err := env.cl.SearchNProbe(r.ctx, indexName, q, topK, ef, 0)
			r.res.ops(1, 0)
			if err != nil {
				r.res.fail("serve: identical-answer search %d: %v", i, err)
				continue
			}
			want := local.SearchNProbe(q, topK, ef, 0)
			same := len(got) == len(want)
			for j := 0; same && j < len(got); j++ {
				same = got[j].ID == want[j].ID && got[j].Dist == want[j].Dist
			}
			if !same {
				r.res.fail("serve: HTTP answer to check query %d (pass %d) differs from in-process SearchNProbe", i, pass)
			}
		}
	}
}

// opRecord is what happened to one scheduled op. Times are offsets on the
// pacer's clock.
type opRecord struct {
	due, sent, done time.Duration
	late            time.Duration
	err             error
	ids             []int32 // search results
}

// timedPhase is the open loop's outcome.
type timedPhase struct {
	recs      []opRecord
	insertIDs []int32         // id of each insert ordinal; -1 if it failed
	deleted   map[int32]int64 // deleted id → acknowledgement time (ns on the pacer clock)
}

// openLoop sends the schedule at the offered rate from loadConns senders,
// timing every op from its due time.
func (r *run) openLoop(env *serveEnv) *timedPhase {
	in := r.in
	tp := &timedPhase{
		recs:      make([]opRecord, len(in.sched)),
		insertIDs: make([]int32, in.inserts.N),
		deleted:   make(map[int32]int64),
	}
	acked := make([]chan struct{}, in.inserts.N)
	for i := range acked {
		acked[i] = make(chan struct{})
		tp.insertIDs[i] = -1
	}
	var delMu sync.Mutex
	clk := wallClock{origin: time.Now()}
	p := newPacer(clk, 10*time.Millisecond, in.interval, len(in.sched))
	reqBase := r.reqs.Add(int64(len(in.sched)))
	var wg sync.WaitGroup
	for s := 0; s < loadConns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, due, ok := p.claim()
				if !ok {
					return
				}
				req := reqBase + int64(i)
				claimed := time.Now()
				rec := &tp.recs[i]
				rec.due = due
				rec.late = p.release(due)
				o := in.sched[i]
				root := r.tr.begin("serve.op", 0, req)
				r.tr.record("bench.pace", root.id, req, claimed, time.Now())
				rec.sent = clk.now()
				switch o.kind {
				case opSearch:
					sp := r.tr.begin("client.SearchNProbe", root.id, req)
					res, err := env.cl.SearchNProbe(r.ctx, indexName, in.serveQuery(o), topK, ef, 0)
					sp.end()
					rec.err = err
					for _, nb := range res {
						rec.ids = append(rec.ids, nb.ID)
					}
				case opInsert:
					sp := r.tr.begin("client.Insert", root.id, req)
					resp, err := env.cl.Insert(r.ctx, indexName, [][]float32{in.inserts.Row(o.arg)})
					sp.end()
					rec.err = err
					if err == nil {
						tp.insertIDs[o.arg] = resp.FirstID
					}
					close(acked[o.arg])
				case opDelete:
					<-acked[o.arg]
					id := tp.insertIDs[o.arg]
					if id < 0 {
						rec.err = errors.New("the insert it deletes failed")
						break
					}
					sp := r.tr.begin("client.Delete", root.id, req)
					_, err := env.cl.Delete(r.ctx, indexName, id)
					sp.end()
					rec.err = err
					if err == nil {
						delMu.Lock()
						tp.deleted[id] = int64(clk.now())
						delMu.Unlock()
					}
				}
				rec.done = clk.now()
				root.end()
			}
		}()
	}
	wg.Wait()

	var search, write, late []float64
	failed := 0
	for i, rec := range tp.recs {
		us := float64((rec.done - rec.due).Nanoseconds()) / 1e3
		if in.sched[i].kind == opSearch {
			search = append(search, us)
		} else {
			write = append(write, us)
		}
		late = append(late, float64(rec.late.Nanoseconds())/1e3)
		if rec.err != nil {
			failed++
		}
	}
	r.res.ops(len(tp.recs), failed)
	if failed > 0 {
		r.res.notef("serve: %d of %d open-loop ops failed; first error: %v", failed, len(tp.recs), firstErr(tp.recs))
	}
	sd, wd, ld := summarize(search), summarize(write), summarize(late)
	r.res.set("serve_search_p50_us", sd.p50)
	// The serve tails are set by a handful of flushes, compactions and
	// host stalls per run, and write latency by the host's fsync time;
	// their run-to-run spread is wider than any bound a gate may use, so
	// they are printed, not gated.
	r.res.notef("serve_write_p50_us %.1f us: median of %d writes; recorded, not gated", wd.p50, wd.n)
	r.res.noteTail("serve_search_p99_us", sd)
	r.res.noteTail("serve_write_p99_us", wd)
	r.res.set("bench.gen_late_p50_us", ld.p50)
	r.res.set("bench.gen_late_p99_us", ld.tail)
	r.res.notef("serve: %d searches, %d writes at %d ops/s; pacer late p50 %.1fus p%g %.1fus",
		sd.n, wd.n, offeredRate, ld.p50, ld.tailP, ld.tail)
	return tp
}

func firstErr(recs []opRecord) error {
	for _, rec := range recs {
		if rec.err != nil {
			return rec.err
		}
	}
	return nil
}

// serveQuery is a search op's query vector.
func (in *inputs) serveQuery(o op) []float32 {
	if in.coldQ.N > 0 {
		return in.coldQ.Row(o.arg)
	}
	return in.pool.Row(o.arg)
}

// peak runs a closed loop of loadConns callers sending fresh queries for
// peakDuration and prints completed searches per second in the median of
// peakWindows equal windows. The figure is not gated: the two callers fall
// into coalescer batches in one of two patterns for a whole run, so runs
// read either about 550 or about 900 searches per second. It runs after the
// quiet checks, which give the compactor a tick to finish with the open
// loop's deletes. No answer may hold a deleted id.
func (r *run) peak(env *serveEnv, tp *timedPhase) {
	var next atomic.Int64
	var okCount, failCount atomic.Int64
	var perWindow [peakWindows]atomic.Int64
	ids := make([][]int32, r.in.peakQ.N)
	start := time.Now()
	deadline := start.Add(peakDuration)
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= r.in.peakQ.N {
					return
				}
				req := r.req()
				sp := r.tr.begin("client.SearchNProbe", 0, req)
				res, err := env.cl.SearchNProbe(r.ctx, indexName, r.in.peakQ.Row(k), topK, ef, 0)
				sp.end()
				if err != nil {
					failCount.Add(1)
					continue
				}
				okCount.Add(1)
				if w := int(time.Since(start) * peakWindows / peakDuration); w < peakWindows {
					perWindow[w].Add(1)
				}
				for _, nb := range res {
					ids[k] = append(ids[k], nb.ID)
				}
			}
		}()
	}
	wg.Wait()
	r.res.ops(int(okCount.Load()+failCount.Load()), int(failCount.Load()))
	qps := make([]float64, peakWindows)
	for w := range qps {
		qps[w] = float64(perWindow[w].Load()) / (peakDuration / peakWindows).Seconds()
	}
	r.res.notef("serve_peak_qps %.1f 1/s: median of %d windows; recorded, not gated", median(qps), peakWindows)
	for _, res := range ids {
		r.checkNotDeleted(tp, res, math.MaxInt64, "peak search")
	}
}

// quietChecks runs once the load has stopped: recall against exact top-10
// over the final live set, every flushed insert finding itself, and no
// answer holding an id whose delete had been acknowledged before the
// search was sent.
func (r *run) quietChecks(env *serveEnv, tp *timedPhase) error {
	in := r.in
	stats, err := env.cl.Stats(r.ctx, indexName)
	if err != nil {
		return err
	}
	var inserted []int32
	for _, id := range tp.insertIDs {
		if id >= 0 {
			inserted = append(inserted, id)
		}
	}
	slices.Sort(inserted)
	if stats.Pending > len(inserted) {
		return fmt.Errorf("server reports %d pending rows after %d inserts", stats.Pending, len(inserted))
	}
	// Ids are handed out in order, so the rows still buffered are the
	// newest Pending ones.
	flushed := inserted[:len(inserted)-stats.Pending]
	insertRow := make(map[int32]int, len(inserted))
	for ord, id := range tp.insertIDs {
		if id >= 0 {
			insertRow[id] = ord
		}
	}

	live := rowsOf(in.base)
	var want []int32 // flushed inserts still live
	for _, id := range flushed {
		if _, gone := tp.deleted[id]; !gone {
			want = append(want, id)
			live = append(live, candidate{id: id, row: in.inserts.Row(insertRow[id])})
		}
	}
	if stats.Live != len(live) {
		r.res.fail("serve: server reports %d live rows, the acknowledged writes leave %d", stats.Live, len(live))
	}

	queries := make([][]float32, recallQueries)
	for i := range queries {
		queries[i] = in.checkQ.Row(identicalQueries + i)
	}
	truth := exactTopK(live, queries, topK, nil)
	hits := 0
	bound := in.base.N
	if len(inserted) > 0 {
		bound = int(inserted[len(inserted)-1]) + 1
	}
	for i, q := range queries {
		res, err := env.cl.SearchNProbe(r.ctx, indexName, q, topK, ef, 0)
		r.res.ops(1, 0)
		if err != nil {
			r.res.fail("serve: recall search %d: %v", i, err)
			continue
		}
		ids, dists := make([]int32, len(res)), make([]float32, len(res))
		for j, nb := range res {
			ids[j], dists[j] = nb.ID, nb.Dist
		}
		if err := checkResult(ids, dists, bound); err != nil {
			r.res.fail("serve: recall search %d: %v", i, err)
		}
		r.checkNotDeleted(tp, ids, math.MaxInt64, "recall search")
		hits += overlap(ids, truth[i])
	}
	r.res.set("serve_recall_at_10", float64(hits)/float64(topK*len(queries)))

	missing := 0
	for lo := 0; lo < len(want); lo += selfFindChunk {
		chunk := want[lo:min(lo+selfFindChunk, len(want))]
		qs := make([][]float32, len(chunk))
		for i, id := range chunk {
			qs[i] = in.inserts.Row(insertRow[id])
		}
		res, err := env.cl.SearchBatch(r.ctx, indexName, qs, topK, ef)
		r.res.ops(len(chunk), 0)
		if err != nil {
			r.res.fail("serve: self-find batch: %v", err)
			continue
		}
		for i, id := range chunk {
			found := false
			for _, nb := range res[i] {
				found = found || nb.ID == id
			}
			if !found {
				missing++
			}
		}
	}
	if missing > 0 {
		r.res.fail("serve: %d of %d flushed inserts were not found by their own vector", missing, len(want))
	}

	for i, rec := range tp.recs {
		if in.sched[i].kind == opSearch && rec.err == nil {
			r.checkNotDeleted(tp, rec.ids, int64(rec.sent), "open-loop search")
		}
	}
	r.res.notef("serve: %d inserts (%d flushed, %d buffered), %d deletes, %d live rows",
		len(inserted), len(flushed), stats.Pending, len(tp.deleted), len(live))
	return nil
}

// checkNotDeleted fails the run if ids holds an id whose delete was
// acknowledged before sent.
func (r *run) checkNotDeleted(tp *timedPhase, ids []int32, sent int64, what string) {
	for _, id := range ids {
		if ack, ok := tp.deleted[id]; ok && ack < sent {
			r.res.fail("serve: %s returned id %d after its delete was acknowledged", what, id)
		}
	}
}

// serverCounters reports the server's own counters over the open loop,
// from /metrics deltas.
func (r *run) serverCounters(before, after []client.MetricFamily) {
	delta := func(name string) float64 { return promValue(after, name) - promValue(before, name) }
	hits, misses := delta("gkserved_cache_hits_total"), delta("gkserved_cache_misses_total")
	flushes, compactions := delta("gkserved_flushes_total"), delta("gkserved_compactions_total")
	repeats, searches := 0, 0
	for _, o := range r.in.sched {
		if o.kind == opSearch {
			searches++
			if o.repeat {
				repeats++
			}
		}
	}
	r.res.set("server.cache_hit_ratio", hits/max(hits+misses, 1))
	r.res.set("server.repeat_share", float64(repeats)/float64(max(searches, 1)))
	r.res.set("server.batch_size", delta("gkserved_queries_total")/max(delta("gkserved_coalesced_batches_total"), 1))
	r.res.set("server.flushes", flushes)
	r.res.set("server.compactions", compactions)
	r.res.set("server.shed", delta("gkserved_shed_total"))
	r.res.set("server.deadline_exceeded", delta("gkserved_deadline_exceeded_total"))
	r.res.notef("serve: %g flushes, %g compactions (interval %s), cache hits %g of %g lookups, %d of %d searches repeat a query",
		flushes, compactions, compactInterval, hits, hits+misses, repeats, searches)
}

// promValue sums a family's samples, which carry at most the one index
// label here.
func promValue(fams []client.MetricFamily, name string) float64 {
	f, ok := client.Find(fams, name)
	if !ok {
		return 0
	}
	sum := 0.0
	for _, s := range f.Samples {
		sum += s.Value
	}
	return sum
}
