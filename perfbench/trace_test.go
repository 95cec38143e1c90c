package main

import (
	"testing"
	"time"
)

// TestSelfTimeNestedChildren: a span's self time is its duration minus the
// union of its children's intervals inside it; grandchildren only reduce
// their own parent's self time.
func TestSelfTimeNestedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past root
		{ID: 5, Parent: 3, Name: "b1", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Parent: 3, Name: "b2", Start: 40 * ms, End: 45 * ms},
		{ID: 7, Name: "other root", Start: 0, End: 10 * ms},
	}
	want := map[int64]time.Duration{
		1: 50 * ms, // 100 - [10,50] - [90,100]
		2: 20 * ms,
		3: 15 * ms, // 30 - 10 - 5
		4: 30 * ms,
		5: 10 * ms,
		6: 5 * ms,
		7: 10 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("call", root.id, 7)
	child.end()
	root.end()
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	c, r := tr.spans[0], tr.spans[1]
	if c.Parent != r.ID || c.Req != 7 || r.Req != 7 || r.Parent != 0 {
		t.Errorf("spans %+v %+v: want call under op, both request 7", c, r)
	}
	var none *tracer
	none.begin("x", 0, 1).end() // a nil tracer records nothing and must not panic
	none.record("y", 0, 1, time.Now(), time.Now())
}
