package main

import (
	"math"
	"sort"
	"time"
)

// percentile reports the p-th percentile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median: how far the repetitions of one run disagree, in the measure
// the driver applies to runs. 0 for fewer than two samples or a zero median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / math.Abs(m)
}

// us is d in microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
