package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer. Start and End are
// offsets from the trace's origin; Parent is 0 for a root span, and the
// spans of one operation share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanHandle is an open span; end closes it.
type spanHandle struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Duration
}

// begin opens a span under parent (0 for a root) for request req.
func (t *tracer) begin(name string, parent, req int64) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	return spanHandle{t: t, id: t.nextID.Add(1), parent: parent, req: req, name: name, start: time.Since(t.origin)}
}

// end closes the span.
func (h spanHandle) end() {
	if h.t == nil {
		return
	}
	h.t.add(span{ID: h.id, Parent: h.parent, Req: h.req, Name: h.name, Start: h.start, End: time.Since(h.t.origin)})
}

// record adds a span timed by someone else, such as the interval between
// two progress-hook calls.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child's time outside its parent's interval is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals, clipped to
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// budget prints, per span name, how many spans there were, their total
// time and their total self time: where the traced run's time went.
func budget(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := make(map[string]*row)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[s.ID]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "budget: %-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range list {
		fmt.Fprintf(w, "budget: %-32s %8d %12.3f %12.3f\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// writeTrace writes the environment stamp and then every span as one JSON
// object per line.
func writeTrace(path, env string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(map[string]string{"env": env})
	for _, s := range spans {
		enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
