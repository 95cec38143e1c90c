package main

import (
	"sort"
	"sync"

	"gkmeans/internal/vec"
)

// The benchmark computes its own ground truth, so a change to the
// program's exact-search helpers cannot move the recall it is judged by.

// candidate is a row that can be returned, under its external id.
type candidate struct {
	id  int32
	row []float32
}

// rowsOf lists every row of m under its row number.
func rowsOf(m *vec.Matrix) []candidate {
	c := make([]candidate, m.N)
	for i := range c {
		c[i] = candidate{id: int32(i), row: m.Row(i)}
	}
	return c
}

// sqDist is the squared Euclidean distance, in four float32 stripes summed
// in float64.
func sqDist(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return float64(s0) + float64(s1) + float64(s2) + float64(s3)
}

// exactTopK returns each query's k nearest candidates, nearest first, ties
// broken by id. skip(q, id), when non-nil, excludes a candidate for query q.
// Two goroutines share the queries.
func exactTopK(cands []candidate, queries [][]float32, k int, skip func(q int, id int32) bool) [][]int32 {
	out := make([][]int32, len(queries))
	type hit struct {
		id int32
		d  float64
	}
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			best := make([]hit, 0, k+1)
			for q := w; q < len(queries); q += workers {
				best = best[:0]
				for _, c := range cands {
					if skip != nil && skip(q, c.id) {
						continue
					}
					d := sqDist(queries[q], c.row)
					if len(best) == k {
						last := best[k-1]
						if d > last.d || (d == last.d && c.id > last.id) {
							continue
						}
					}
					pos := sort.Search(len(best), func(j int) bool {
						return best[j].d > d || (best[j].d == d && best[j].id > c.id)
					})
					if len(best) < k {
						best = append(best, hit{})
					}
					copy(best[pos+1:], best[pos:len(best)-1])
					best[pos] = hit{c.id, d}
				}
				ids := make([]int32, len(best))
				for i, h := range best {
					ids[i] = h.id
				}
				out[q] = ids
			}
		}(w)
	}
	wg.Wait()
	return out
}

// overlap counts the ids of got that are in want.
func overlap(got, want []int32) int {
	in := make(map[int32]bool, len(want))
	for _, id := range want {
		in[id] = true
	}
	n := 0
	for _, id := range got {
		if in[id] {
			n++
		}
	}
	return n
}

// rowsSlice lists the rows of m.
func rowsSlice(m *vec.Matrix) [][]float32 {
	out := make([][]float32, m.N)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}
