package main

import (
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0 (the layer saw no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
