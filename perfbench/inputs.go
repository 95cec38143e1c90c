package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"gkmeans/internal/dataset"
	"gkmeans/internal/vec"
)

// Sizes of the generated inputs.
const (
	dim           = 128
	baseRows      = 20000 // indexed by every phase
	searchQueries = 1000  // held-out queries of the in-process search phase
	poolSize      = 4096  // held-out queries the Zipf serve stream draws from
	checkQueries  = 512   // held-out queries for warm-up and quiet-moment checks
	probeQueries  = 2048  // fresh queries for the traced layer probes
	peakQueries   = 16384 // fresh queries for the closed-loop peak phase

	searchFrac = 0.88 // share of serve ops that are single-query searches
	insertFrac = 0.10 // share that insert one vector; the rest delete
	// deleteLag is how many ops before a delete the insert it targets is
	// scheduled, at least.
	deleteLag = 16
)

// Salts that keep the seeded streams apart.
const (
	saltSchedule uint64 = 0x5343_4844 // "SCHD"
	saltSearch   uint64 = 0x5352_4348 // "SRCH"
	saltSample   uint64 = 0x534d_504c // "SMPL"
	saltSplit    uint64 = 0x5350_4c54 // "SPLT"
)

// The indexed rows are the same in every run: the first baseRows rows of
// dataset.SIFTLike(21000, corpusSeed). At this commit search recall hangs on
// where the entry points fall in the row order, so a corpus that changed
// with the seed would swing recall@10 between about 0.6 and 0.99 from run
// to run. The seed picks everything else: which held-out rows of the same
// mixture become queries and inserted vectors, and the op schedule.
const (
	corpusSeed = 1
	// corpusComponents is the mixture size dataset.SIFTLike picks for
	// 21,000 rows.
	corpusComponents = 21000 / 200
)

// siftCorpus draws n rows from the SIFT-like mixture; its first 21,000 rows
// are exactly dataset.SIFTLike(21000, corpusSeed).
func siftCorpus(n int) *vec.Matrix {
	m, _ := dataset.GMM(dataset.GMMConfig{
		N: n, Dim: dim, Components: corpusComponents,
		Spread: 14, Noise: 15, Seed: corpusSeed,
		Offset: 60, ClampMin: 0, ClampMax: 160, Quantize: true,
	})
	return m
}

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

// op is one scheduled serve operation. arg is the query row (searches), the
// row of inputs.inserts (inserts), or the insert ordinal whose id is
// deleted (deletes). repeat marks a search whose query an earlier op of
// the schedule already sent.
type op struct {
	kind   opKind
	arg    int
	repeat bool
}

// inputs is everything a run sends to the program, made from the seed.
type inputs struct {
	base    *vec.Matrix // indexed rows
	searchQ *vec.Matrix // in-process search queries
	pool    *vec.Matrix // Zipf query pool
	checkQ  *vec.Matrix // warm-up and check queries
	probeQ  *vec.Matrix // traced-probe queries
	peakQ   *vec.Matrix // peak-phase queries, none repeated
	inserts *vec.Matrix // inserted vectors, in insert order
	coldQ   *vec.Matrix // serve queries of the cold workload, none repeated

	searchOrder []int // in-process search calls: query rows, searchPasses passes each in a fresh order
	sched       []op  // serve timed phase, one op per interval
	interval    time.Duration
}

// makeInputs builds a workload's inputs. The same arguments always give
// identical inputs.
func makeInputs(w workload, seed int64, seconds int, rate int) *inputs {
	sched, nInsert, nCold := schedule(w, seed, seconds*rate)
	held := []int{searchQueries, poolSize, checkQueries, probeQueries, peakQueries, nInsert, nCold}
	total := baseRows
	for _, n := range held {
		total += n
	}
	corpus := siftCorpus(total)
	perm := rand.New(rand.NewPCG(uint64(seed), saltSplit)).Perm(total - baseRows)
	parts := make([]*vec.Matrix, len(held))
	lo := 0
	for i, n := range held {
		rows := perm[lo : lo+n]
		for j := range rows {
			rows[j] += baseRows
		}
		parts[i] = corpus.SubsetRows(rows)
		lo += n
	}
	in := &inputs{
		base:    &vec.Matrix{N: baseRows, Dim: dim, Data: corpus.Data[:baseRows*dim]},
		searchQ: parts[0], pool: parts[1], checkQ: parts[2], probeQ: parts[3],
		peakQ: parts[4], inserts: parts[5], coldQ: parts[6],
		sched:    sched,
		interval: time.Second / time.Duration(rate),
	}
	rng := rand.New(rand.NewPCG(uint64(seed), saltSearch))
	for p := 0; p < searchPasses; p++ {
		in.searchOrder = append(in.searchOrder, rng.Perm(searchQueries)...)
	}
	return in
}

// schedule draws n serve ops: exactly searchFrac searches and insertFrac
// inserts, the rest deletes of ids this run inserted, oldest first, all in
// a seeded order. Zipf searches draw Zipf(s=1) ranks over the pool; cold
// searches each get a fresh query. A delete with no insert at least
// deleteLag ops old becomes an insert.
func schedule(w workload, seed int64, n int) (ops []op, nInsert, nCold int) {
	rng := rand.New(rand.NewPCG(uint64(seed), saltSchedule))
	nSearch := int(math.Round(searchFrac * float64(n)))
	nIns := int(math.Round(insertFrac * float64(n)))
	kinds := make([]opKind, n)
	for i := range kinds {
		switch {
		case i < nSearch:
			kinds[i] = opSearch
		case i < nSearch+nIns:
			kinds[i] = opInsert
		default:
			kinds[i] = opDelete
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	zipf := newZipf(poolSize)
	seen := make([]bool, poolSize)
	insertAt := []int{} // op index of each insert
	nDelete := 0
	ops = make([]op, n)
	for i, k := range kinds {
		switch {
		case k == opSearch && w == workloadZipf:
			q := zipf.draw(rng)
			ops[i] = op{kind: opSearch, arg: q, repeat: seen[q]}
			seen[q] = true
		case k == opSearch:
			ops[i] = op{kind: opSearch, arg: nCold}
			nCold++
		case k == opDelete && nDelete < len(insertAt) && insertAt[nDelete] <= i-deleteLag:
			ops[i] = op{kind: opDelete, arg: nDelete}
			nDelete++
		default:
			ops[i] = op{kind: opInsert, arg: len(insertAt)}
			insertAt = append(insertAt, i)
		}
	}
	return ops, len(insertAt), nCold
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	return min(k, len(z.cdf)-1)
}

// sample returns k distinct indices below n in a seeded order.
func sample(seed int64, n, k int) []int {
	rng := rand.New(rand.NewPCG(uint64(seed), saltSample))
	return rng.Perm(n)[:min(k, n)]
}
