package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "exclusive" method of Python's
// statistics.quantiles, so in-run and cross-run spreads are computed the
// same way). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)+1) // 1-based rank
	switch {
	case pos <= 1:
		return s[0]
	case pos >= float64(len(s)):
		return s[len(s)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a sample's median and quartiles, stamped next to every
// metric so a reader sees the spread behind each number.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}
