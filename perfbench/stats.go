package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// geomean is the geometric mean of the positive entries of xs.
func geomean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// tailPercentiles are the candidates for a timing's reported tail, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailOf picks the highest percentile that still has at least ten
// samples beyond it (0 when there are too few samples for any).
func tailOf(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// summary is a timing distribution as the report prints it.
type summary struct {
	unit   string
	n      int
	median float64
	tailP  float64
	tail   float64
}

func summarize(xs []float64, unit string) summary {
	s := summary{unit: unit, n: len(xs), median: median(xs), tailP: tailOf(len(xs))}
	if s.tailP > 0 {
		s.tail = percentile(xs, s.tailP)
	}
	return s
}

func (s summary) line(name string) string {
	if s.tailP == 0 {
		return fmt.Sprintf("%-28s median %.6g %s  (n=%d, too few samples for a tail percentile)", name, s.median, s.unit, s.n)
	}
	return fmt.Sprintf("%-28s median %.6g %s  p%g %.6g %s  (n=%d)", name, s.median, s.unit, s.tailP, s.tail, s.unit, s.n)
}
