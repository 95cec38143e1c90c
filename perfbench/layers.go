package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"gkmeans"
	"gkmeans/client"
	"gkmeans/internal/vec"
	"gkmeans/internal/wal"
)

const (
	// probeCalls is how many calls each latency probe makes: enough for a
	// p99 with ten samples beyond it.
	probeCalls = 1000
	walAppends = 200
	// appendRows matches a memtable flush.
	appendRows = 256
	// compactDeletes is how many of the appended rows are deleted before
	// the appended shard is compacted, enough to exceed the default
	// policy's 25% tombstone ratio.
	compactDeletes = 96
)

// traceServeLayers times the server handler without the network, the
// client's JSON work and round trip, the WAL and the root package's search,
// append, compact, save and load, each called directly. It runs after the
// load has stopped, with queries the server has not cached.
func (r *run) traceServeLayers(env *serveEnv, local *gkmeans.Index, loadTime time.Duration) error {
	in := r.in
	bodies := make([][]byte, probeCalls)
	enc := make([]float64, probeCalls)
	for i := range bodies {
		sr := client.SearchRequest{Query: in.probeQ.Row(i), TopK: topK, Ef: ef}
		sp := r.tr.begin("client.encode", 0, r.req())
		start := time.Now()
		b, err := json.Marshal(sr)
		enc[i] = us(time.Since(start))
		sp.end()
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	handler := env.srv.Handler()
	hlat := make([]float64, probeCalls)
	replies := make([][]byte, probeCalls)
	for i, b := range bodies {
		req := httptest.NewRequest("POST", "/v1/indexes/"+indexName+"/search", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		sp := r.tr.begin("server.Handler.ServeHTTP", 0, r.req())
		start := time.Now()
		handler.ServeHTTP(rec, req)
		hlat[i] = us(time.Since(start))
		sp.end()
		r.res.ops(1, 0)
		if rec.Code != 200 {
			r.res.fail("serve: handler probe %d answered %d", i, rec.Code)
		}
		replies[i] = rec.Body.Bytes()
	}
	hd := summarize(hlat)

	dec := make([]float64, probeCalls)
	for i, b := range replies {
		var resp client.SearchResponse
		sp := r.tr.begin("client.decode", 0, r.req())
		start := time.Now()
		err := json.Unmarshal(b, &resp)
		dec[i] = us(time.Since(start))
		sp.end()
		if err != nil {
			return fmt.Errorf("decoding a recorded search response: %w", err)
		}
	}

	rt := make([]float64, probeCalls)
	for i := range rt {
		q := in.probeQ.Row(probeCalls + i)
		sp := r.tr.begin("client.SearchNProbe", 0, r.req())
		start := time.Now()
		_, err := env.cl.SearchNProbe(r.ctx, indexName, q, topK, ef, 0)
		rt[i] = us(time.Since(start))
		sp.end()
		r.res.ops(1, 0)
		if err != nil {
			r.res.fail("serve: round-trip probe %d: %v", i, err)
		}
	}
	roundtrip := median(rt)
	r.res.set("server.handler_p50_us", hd.p50)
	r.res.setTail("server.handler_p99_us", hd)
	r.res.set("client.encode_us", median(enc))
	r.res.set("client.decode_us", median(dec))
	r.res.set("client.roundtrip_us", roundtrip)
	r.res.set("client.transport_us", roundtrip-hd.p50)
	r.res.notef("client: transport_us is computed as roundtrip_us minus server.handler_p50_us")

	if err := r.traceWAL(); err != nil {
		return err
	}
	if err := r.traceIndex(local, loadTime); err != nil {
		return err
	}
	u8, err := vec.U8FromMatrix(in.base)
	if err != nil {
		return err
	}
	qu8, err := vec.U8FromMatrix(in.probeQ)
	if err != nil {
		return err
	}
	r.res.set("vec.kernel_ns_u8", kernelNS(func(i, j int) float32 {
		return float32(vec.L2SqrU8(qu8.Row(i%qu8.N), u8.Row(j)))
	}))
	return nil
}

// traceWAL times Log.Append, fsync included, of one-vector insert records
// in the run's directory, on the same filesystem as the server's log.
func (r *run) traceWAL() error {
	l, err := wal.Open(filepath.Join(r.work, "probe.wal"))
	if err != nil {
		return err
	}
	defer l.Close()
	lat := make([]float64, walAppends)
	for i := range lat {
		payload, err := wal.EncodeInsert(int32(baseRows+i), dim, r.in.inserts.Row(i%r.in.inserts.N))
		if err != nil {
			return err
		}
		sp := r.tr.begin("wal.Log.Append", 0, r.req())
		start := time.Now()
		err = l.Append(payload)
		lat[i] = us(time.Since(start))
		sp.end()
		if err != nil {
			return err
		}
	}
	r.res.set("wal.append_us", median(lat))
	return nil
}

// traceIndex calls the root package on an in-process copy of the served
// index: SearchNProbe with its counters, a memtable-sized Append, a
// compaction of the appended shard, and SaveIndex.
func (r *run) traceIndex(x *gkmeans.Index, loadTime time.Duration) error {
	in := r.in
	s0 := x.SearchStats()
	lat := make([]float64, probeCalls)
	for i := range lat {
		sp := r.tr.begin("gkmeans.Index.SearchNProbe", 0, r.req())
		start := time.Now()
		x.SearchNProbe(in.probeQ.Row(i), topK, ef, 0)
		lat[i] = us(time.Since(start))
		sp.end()
	}
	s1 := x.SearchStats()
	nq := float64(s1.Queries - s0.Queries)
	r.res.set("gkmeans.search_us", median(lat))
	r.res.set("gkmeans.shards_probed_per_query", float64(s1.ShardsProbed-s0.ShardsProbed)/nq)
	r.res.set("vec.bytes_per_query_u8", float64(s1.DistanceComps-s0.DistanceComps)/nq*dim)

	rows := &gkmeans.Matrix{N: appendRows, Dim: dim, Data: in.probeQ.Data[:appendRows*dim]}
	firstID := x.IDBound()
	req := r.req()
	sp := r.tr.begin("gkmeans.Index.Append", 0, req)
	start := time.Now()
	grown, err := x.Append(r.ctx, rows)
	appendTime := time.Since(start)
	sp.end()
	if err != nil {
		return fmt.Errorf("Append: %w", err)
	}
	ids := make([]int32, compactDeletes)
	for i := range ids {
		ids[i] = firstID + int32(i)
	}
	thinned, err := grown.Delete(ids...)
	if err != nil {
		return fmt.Errorf("Delete: %w", err)
	}
	last := len(thinned.ShardInfos()) - 1
	sp = r.tr.begin("gkmeans.Index.Compact", 0, req)
	start = time.Now()
	_, err = thinned.Compact(r.ctx, last)
	compactTime := time.Since(start)
	sp.end()
	if err != nil {
		return fmt.Errorf("Compact: %w", err)
	}

	sp = r.tr.begin("gkmeans.SaveIndex", 0, req)
	start = time.Now()
	err = gkmeans.SaveIndex(filepath.Join(r.work, "probe.gkx"), x)
	saveTime := time.Since(start)
	sp.end()
	if err != nil {
		return err
	}
	r.res.set("gkmeans.append_s", appendTime.Seconds())
	r.res.set("gkmeans.compact_s", compactTime.Seconds())
	r.res.set("gkmeans.load_s", loadTime.Seconds())
	r.res.set("gkmeans.save_s", saveTime.Seconds())
	return nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
