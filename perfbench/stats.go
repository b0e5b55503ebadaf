package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read from fewer samples does not repeat between runs.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first. p99 is the ceiling: the workloads are sized so ingest and serve
// reach it, and nothing asks for a higher one.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be non-empty and ascending.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile in n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above its rank, and the median when none
// does.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// interval is a half-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that no child covers: its duration
// minus the union of the children clipped to it. Children that overlap,
// such as trials running on two workers at once, are counted once, so
// the result is never negative.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// distinctSorted sorts xs and compacts it in place, and returns how many
// distinct values it holds.
func distinctSorted(xs []uint64) int {
	slices.Sort(xs)
	return len(slices.Compact(xs))
}

// repeatShare is the share of a stream of total elements, distinct of
// them different, that repeat an element seen earlier.
func repeatShare(total, distinct int) float64 {
	if total == 0 {
		return 0
	}
	return 1 - float64(distinct)/float64(total)
}

// relErr is |estimate − exact| / exact.
func relErr(estimate, exact float64) float64 {
	return math.Abs(estimate-exact) / exact
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warmupOps is how many untimed ops run, at the measured concurrency,
// before n timed ones: a tenth as many, about a second's worth.
func warmupOps(n int) int { return n / 10 }

// setupRepeats set-ups are timed and their median reported: one set-up
// takes well under 10 ms, and single timings vary by ±20% within a run.
// setupWarmups untimed set-ups run first; the early ones are the slowest.
const setupRepeats, setupWarmups = 101, 10

// timeSetups runs fn setupWarmups times untimed, then n times timed, each
// timed call after a garbage collection so every set-up starts from the
// same heap; it returns the timings in seconds. The other cores are kept
// busy meanwhile: with them idle, the median of one run's NewF0 timings
// ranged over 0.14–0.33 ms between runs, and with them busy over
// 0.13–0.14 ms.
func timeSetups(n int, fn func() error) ([]float64, error) {
	defer busyOthers()()
	out := make([]float64, 0, n)
	for i := 0; i < setupWarmups+n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		if i >= setupWarmups {
			out = append(out, time.Since(t0).Seconds())
		}
	}
	return out, nil
}
