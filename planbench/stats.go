package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean returns the geometric mean of positive values; 0 for an empty
// slice.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailLevels are the percentiles a tail is reported at, highest first. A
// fixed ladder keeps the reported level from drifting with small changes
// in the sample count.
var tailLevels = []float64{99, 90}

// tail returns the highest percentile of tailLevels that has at least ten
// samples strictly beyond its rank, and its value: the order statistic at
// rank ceil(n·p/100), so p99 needs n ≥ 1000. When neither level has ten
// samples beyond it, the median is returned at level 50.
func tail(xs []float64) (level, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLevels {
		rank := int(math.Ceil(float64(n) * p / 100)) // 1-based
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}
