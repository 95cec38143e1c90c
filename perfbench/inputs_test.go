package main

import (
	"reflect"
	"testing"

	"gkmeans/internal/dataset"
)

func TestInputsDeterministic(t *testing.T) {
	for _, w := range []workload{workloadZipf, workloadCold} {
		a := makeInputs(w, 42, 3, 400)
		b := makeInputs(w, 42, 3, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave different inputs", w)
		}
		c := makeInputs(w, 43, 3, 400)
		if reflect.DeepEqual(a.sched, c.sched) || reflect.DeepEqual(a.searchQ, c.searchQ) {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", w)
		}
		if !reflect.DeepEqual(a.base, c.base) {
			t.Errorf("%s: the indexed rows changed with the seed", w)
		}
	}
}

// TestCorpusExtendsSIFTLike: the indexed rows are the first 20,000 of
// dataset.SIFTLike(21000, 1), and the held-out rows come from the same
// mixture.
func TestCorpusExtendsSIFTLike(t *testing.T) {
	n := baseRows + searchQueries
	want := dataset.SIFTLike(n, corpusSeed)
	got := siftCorpus(n + 100)
	if !reflect.DeepEqual(got.Data[:n*dim], want.Data) {
		t.Fatal("the corpus does not start with SIFTLike(21000, 1)")
	}
	in := makeInputs(workloadCold, 3, 1, 100)
	if !reflect.DeepEqual(in.base.Data, want.Data[:baseRows*dim]) {
		t.Fatal("the indexed rows are not the corpus's first 20,000")
	}
}

func TestScheduleMixAndDeleteTargets(t *testing.T) {
	const n = 8800
	for _, w := range []workload{workloadZipf, workloadCold} {
		ops, nInsert, nCold := schedule(w, 5, n)
		counts := map[opKind]int{}
		insertAt := map[int]int{} // insert ordinal → op index
		nextDelete := 0
		for i, o := range ops {
			counts[o.kind]++
			switch o.kind {
			case opInsert:
				insertAt[o.arg] = i
			case opDelete:
				if o.arg != nextDelete {
					t.Fatalf("%s: delete %d targets insert %d, want oldest first", w, nextDelete, o.arg)
				}
				nextDelete++
				if at, ok := insertAt[o.arg]; !ok || at > i-deleteLag {
					t.Fatalf("%s: op %d deletes insert %d scheduled at %d", w, i, o.arg, at)
				}
			}
		}
		if counts[opSearch] != 7744 || counts[opInsert]+counts[opDelete] != 1056 || counts[opInsert] != nInsert {
			t.Errorf("%s: mix %v, want 7744 searches and 1056 writes", w, counts)
		}
		if counts[opInsert] < 3*256 {
			t.Errorf("%s: %d inserts fill fewer than three 256-row memtables", w, counts[opInsert])
		}
		if (w == workloadCold) != (nCold == counts[opSearch]) {
			t.Errorf("%s: %d fresh queries for %d searches", w, nCold, counts[opSearch])
		}
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	ops, _, _ := schedule(workloadZipf, 9, 20000)
	hits := make([]int, poolSize)
	for _, o := range ops {
		if o.kind == opSearch {
			hits[o.arg]++
		}
	}
	if hits[0] < 10*hits[100] || hits[0] == 0 {
		t.Errorf("rank 0 drawn %d times, rank 100 %d: not Zipf(s=1)", hits[0], hits[100])
	}
}
