package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{24000, 99},
		{1000, 99}, // rank 990 leaves exactly 10 above
		{999, 95},  // p99's rank 990 would leave 9
		{100, 90},
		{99, 75},
		{20, 50},
		{19, 50}, // not even the median has 10 above it: fall back to it
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); tc.n >= 20 && tc.n-rank(tc.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%g leaves %d samples beyond", tc.n, p, tc.n-rank(tc.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping (two workers)", []interval{{110, 160}, {120, 150}, {140, 180}}, 30},
		{"unsorted and touching", []interval{{150, 170}, {110, 150}}, 40},
		{"clipped to the parent", []interval{{50, 120}, {190, 260}}, 70},
		{"outside the parent", []interval{{0, 50}, {200, 300}}, 100},
		{"covering the parent", []interval{{90, 210}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSMatchesChildrenToParents(t *testing.T) {
	parents := []span{{ID: 1, Start: 0, End: 1000}, {ID: 2, Start: 2000, End: 2500}}
	children := []span{
		{Parent: 1, Start: 100, End: 600},
		{Parent: 1, Start: 300, End: 700}, // overlaps the first
		{Parent: 2, Start: 2000, End: 2100},
		{Parent: 9, Start: 0, End: 5000}, // another parent's child
	}
	// Parent 1: 1000 − 600 covered; parent 2: 500 − 100.
	if got, want := selfTimeS(parents, children), 800e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("selfTimeS = %g, want %g", got, want)
	}
}

func TestRepeatShare(t *testing.T) {
	xs := []uint64{5, 3, 5, 9, 3, 5}
	d := distinctSorted(xs)
	if d != 3 {
		t.Fatalf("distinctSorted = %d, want 3", d)
	}
	if got, want := repeatShare(6, d), 0.5; got != want {
		t.Errorf("repeatShare(6, 3) = %g, want %g", got, want)
	}
	if got := repeatShare(4, 4); got != 0 {
		t.Errorf("all-new stream: repeatShare = %g, want 0", got)
	}
	if got := repeatShare(0, 0); got != 0 {
		t.Errorf("empty stream: repeatShare = %g, want 0", got)
	}
}

func TestRelErr(t *testing.T) {
	for _, tc := range []struct{ est, exact, want float64 }{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{100, 100, 0},
		{0, 50, 1},
	} {
		if got := relErr(tc.est, tc.exact); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relErr(%g, %g) = %g, want %g", tc.est, tc.exact, got, tc.want)
		}
	}
}

func TestMetricSum(t *testing.T) {
	text := `# HELP f0d_http_requests_total HTTP requests served.
# TYPE f0d_http_requests_total counter
f0d_http_requests_total{code="200",route="POST /v1/sketches/{name}/add"} 90
f0d_http_requests_total{code="201",route="POST /v1/sketches"} 1
f0d_http_requests_total{code="404",route="GET /v1/sketches/{name}/estimate"} 2
f0d_http_requests_total_extra 100
f0d_estimate_queries_total{tenant="bench"} 12
`
	if bad := metricSum(text, "f0d_http_requests_total", non2xx); bad != 2 {
		t.Errorf("non-2xx = %g, want 2", bad)
	}
	if all := metricSum(text, "f0d_http_requests_total", nil); all != 93 {
		t.Errorf("all requests = %g, want 93", all)
	}
	if q := metricSum(text, "f0d_estimate_queries_total", nil); q != 12 {
		t.Errorf("estimate queries = %g, want 12", q)
	}
}
