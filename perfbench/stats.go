package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// samples collects latencies of one kind of operation in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile, and minTailCount the sample count below which no
// percentile other than the median is reported.
const (
	minTailSamples = 10
	minTailCount   = 40
)

// rank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether percentile p may be reported over n samples:
// at least minTailCount samples in all, and at least minTailSamples of
// them strictly beyond the percentile's rank.
func tailOK(p float64, n int) bool {
	return n >= minTailCount && n-rank(p, n) >= minTailSamples
}

// percentile returns the nearest-rank percentile p of xs, or NaN when
// tailOK does not hold for len(xs).
func percentile(xs []float64, p float64) float64 {
	if !tailOK(p, len(xs)) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// logTail prints the search latency percentiles of a run to stderr, the
// evidence behind the choice of tail percentile.
func logTail(search samples) {
	fmt.Fprintf(os.Stderr, "perfbench: %d searches, ms at p75 %.3f p90 %.3f p95 %.3f p99 %.3f\n", len(search),
		percentile(search, 75), percentile(search, 90), percentile(search, 95), percentile(search, 99))
}
