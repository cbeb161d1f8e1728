package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs, with the same interpolation as Python's statistics.quantiles
// (method "exclusive"), which is how the benchmark's spread is judged.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Position p·(n+1) on the 1-based sorted sample, clamped to it.
		h := p * float64(len(s)+1)
		switch {
		case h <= 1:
			return s[0]
		case h >= float64(len(s)):
			return s[len(s)-1]
		}
		lo := math.Floor(h)
		return s[int(lo)-1] + (h-lo)*(s[int(lo)]-s[int(lo)-1])
	}
	return at(0.25), median(s), at(0.75)
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean of xs: the mean of what remains after
// dropping the lowest and highest quarter. It is as robust as the median
// to a stray value, but unlike the median of values that sit on
// histogram bucket midpoints it can fall between two buckets.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// relSpread is the interquartile range of xs as a share of its median
// (0 when the median is 0).
func relSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// medianByKey returns, for every key in ms, the median of its values.
func medianByKey(ms []map[string]float64) map[string]float64 {
	all := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, xs := range all {
		out[k] = median(xs)
	}
	return out
}
