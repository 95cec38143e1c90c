package main

import (
	"encoding/json"
	"os"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestTailRule pins the percentile rule: the reported tail is the highest
// percentile with at least ten samples beyond it, so p99 needs 1,000.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{1000, 99, 990},
		{999, 90, 900},
		{100, 90, 90},
		{99, 50, 50},
		{21, 50, 11},
		{20, 50, 10},
		{19, 0, 10}, // even the median has only 9 samples beyond it
		{1, 0, 1},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.n != c.n || d.tailP != c.tailP || d.tail != c.tail {
			t.Errorf("n=%d: got tail p%g=%g, want p%g=%g", c.n, d.tailP, d.tail, c.tailP, c.tail)
		}
		if d.tailP > 0 && beyond(c.n, d.tailP) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, d.tailP, beyond(c.n, d.tailP))
		}
	}
	if d := summarize(seq(1000)); d.p50 != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", d.p50)
	}
}

func TestRefusedP99IsNoted(t *testing.T) {
	r := newResults()
	r.setTail("x_p99_us", summarize(seq(999)))
	if r.values["x_p99_us"] != 900 || len(r.notes) != 1 {
		t.Fatalf("got value %g and notes %q; want the p90 900 with one note", r.values["x_p99_us"], r.notes)
	}
}

// TestFastestBlocks pins the block rule: blocks are ranked by their
// median and the k fastest are pooled.
func TestFastestBlocks(t *testing.T) {
	blocks := make([][]float64, 20)
	for i := range blocks {
		// Block i holds 1000 samples from 100+10*(19-i) up, so the fastest
		// are the last ones.
		blocks[i] = make([]float64, 1000)
		for j := range blocks[i] {
			blocks[i][j] = float64(100+10*(19-i)) + float64(1000-j)/1000
		}
	}
	if k := tailBlocks(len(blocks)); k != 2 {
		t.Fatalf("tailBlocks(20) = %d, want 2", k)
	}
	d := fastestBlocks(blocks, 2)
	if d.n != 2000 || d.p50 < 100 || d.p50 >= 110 || d.tail < 110 || d.tail >= 111 {
		t.Errorf("k=2: got %d samples, p50 %g, tail %g; want the pool of blocks 100.x and 110.x", d.n, d.p50, d.tail)
	}
	if d := fastestBlocks(blocks, 1); d.n != 1000 || d.p50 < 100 || d.p50 >= 101 {
		t.Errorf("k=1: got %d samples, p50 %g; want block 100.x alone", d.n, d.p50)
	}
	if d := fastestBlocks(blocks[:3], 5); d.n != 3000 {
		t.Errorf("k above the block count: got %d samples, want all 3000", d.n)
	}
	if d := fastestBlocks(nil, 1); d.n != 0 {
		t.Errorf("no blocks: got %d samples", d.n)
	}
	if k := tailBlocks(48); k != 5 {
		t.Errorf("tailBlocks(48) = %d, want 5", k)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != 2 || b.Workloads[0].Name != string(workloadZipf) || b.Workloads[1].Name != string(workloadCold) {
		t.Errorf("workloads %+v, want zipf and cold", b.Workloads)
	}
}
