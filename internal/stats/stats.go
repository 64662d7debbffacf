// Package stats provides the statistical substrate used across the OpenBI
// reproduction: descriptive statistics, correlation measures for numeric and
// nominal attributes, information-theoretic quantities, hypothesis-test
// statistics and principal component analysis.
//
// Everything is implemented on plain float64 slices so that the higher
// layers (dq, mining, inject) can use it without adopting a matrix type.
// All functions treat NaN as "missing" and skip such entries pairwise unless
// stated otherwise.
package stats

import (
	"math"
	"sort"
)

// IsMissing reports whether v encodes a missing observation. The whole
// code base uses NaN as the in-band missing marker for numeric data.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Mean returns the arithmetic mean of the non-missing entries of xs.
// It returns NaN when xs contains no observed value.
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range xs {
		if IsMissing(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Variance returns the unbiased (n-1) sample variance of the non-missing
// entries of xs, or NaN when fewer than two values are observed.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if IsMissing(m) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, v := range xs {
		if IsMissing(v) {
			continue
		}
		d := v - m
		sum += d * d
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest observed values in xs.
// Both are NaN when nothing is observed.
func MinMax(xs []float64) (min, max float64) {
	min, max = math.NaN(), math.NaN()
	for _, v := range xs {
		if IsMissing(v) {
			continue
		}
		if IsMissing(min) || v < min {
			min = v
		}
		if IsMissing(max) || v > max {
			max = v
		}
	}
	return min, max
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the observed values of
// xs using linear interpolation between order statistics (type-7, the
// default of R and NumPy). It returns NaN for an empty input.
func Quantile(xs []float64, q float64) float64 {
	obs := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !IsMissing(v) {
			obs = append(obs, v)
		}
	}
	sort.Float64s(obs)
	return QuantileSorted(obs, q)
}

// QuantileSorted is Quantile over observations already sorted ascending
// and free of missing values — callers taking several quantiles of one
// column sort once instead of once per quantile.
func QuantileSorted(obs []float64, q float64) float64 {
	if len(obs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return obs[0]
	}
	if q >= 1 {
		return obs[len(obs)-1]
	}
	pos := q * float64(len(obs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return obs[lo]
	}
	frac := pos - float64(lo)
	return obs[lo]*(1-frac) + obs[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQROutlierRatio returns the fraction of observed values lying outside
// [Q1 - k*IQR, Q3 + k*IQR], the classical Tukey fence used by the dq
// package's outlier criterion. k is typically 1.5.
func IQROutlierRatio(xs []float64, k float64) float64 {
	q1 := Quantile(xs, 0.25)
	q3 := Quantile(xs, 0.75)
	if IsMissing(q1) || IsMissing(q3) {
		return 0
	}
	iqr := q3 - q1
	lo, hi := q1-k*iqr, q3+k*iqr
	out, n := 0, 0
	for _, v := range xs {
		if IsMissing(v) {
			continue
		}
		n++
		if v < lo || v > hi {
			out++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(out) / float64(n)
}

// Pearson returns the Pearson product-moment correlation between xs and ys,
// skipping pairs where either side is missing. It returns 0 when either
// side is constant (rather than NaN) so that aggregate correlation summaries
// remain well-defined on degenerate columns.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var sx, sy float64
	cnt := 0
	for i := 0; i < n; i++ {
		if IsMissing(xs[i]) || IsMissing(ys[i]) {
			continue
		}
		sx += xs[i]
		sy += ys[i]
		cnt++
	}
	if cnt < 2 {
		return 0
	}
	mx, my := sx/float64(cnt), sy/float64(cnt)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		if IsMissing(xs[i]) || IsMissing(ys[i]) {
			continue
		}
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Ranks returns the fractional (average-tie) ranks of xs. Missing entries
// stay NaN and do not consume rank positions.
func Ranks(xs []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	obs := make([]iv, 0, len(xs))
	for i, v := range xs {
		if !IsMissing(v) {
			obs = append(obs, iv{i, v})
		}
	}
	sort.Slice(obs, func(a, b int) bool { return obs[a].v < obs[b].v })
	ranks := make([]float64, len(xs))
	for i := range ranks {
		ranks[i] = math.NaN()
	}
	for i := 0; i < len(obs); {
		j := i
		for j < len(obs) && obs[j].v == obs[i].v {
			j++
		}
		r := float64(i+j-1)/2 + 1 // average rank of the tie block, 1-based
		for k := i; k < j; k++ {
			ranks[obs[k].i] = r
		}
		i = j
	}
	return ranks
}

// Entropy returns the Shannon entropy, in bits, of a discrete distribution
// given as non-negative counts. Zero counts contribute nothing.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// NormalizedEntropy returns Entropy(counts) / log2(k) where k is the number
// of non-empty categories; it is 1 for a perfectly balanced distribution
// and approaches 0 for a degenerate one. A distribution with a single
// category has normalized entropy 1 by convention (it cannot be imbalanced
// against itself).
func NormalizedEntropy(counts []int) float64 {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	if k <= 1 {
		return 1
	}
	return Entropy(counts) / math.Log2(float64(k))
}

// ChiSquare computes the chi-square statistic of an r×c contingency table
// given in row-major order, together with its degrees of freedom. Rows or
// columns whose marginal is zero are ignored for the degrees of freedom.
func ChiSquare(table [][]int) (chi2 float64, dof int) {
	r := len(table)
	if r == 0 {
		return 0, 0
	}
	c := len(table[0])
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	total := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := float64(table[i][j])
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0, 0
	}
	effR, effC := 0, 0
	for i := 0; i < r; i++ {
		if rowSum[i] > 0 {
			effR++
		}
	}
	for j := 0; j < c; j++ {
		if colSum[j] > 0 {
			effC++
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rowSum[i] == 0 || colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / total
			d := float64(table[i][j]) - expected
			chi2 += d * d / expected
		}
	}
	dof = (effR - 1) * (effC - 1)
	if dof < 0 {
		dof = 0
	}
	return chi2, dof
}

// CramersV returns Cramér's V association measure (0..1) for a contingency
// table of two nominal variables, the nominal counterpart of |Pearson|.
func CramersV(table [][]int) float64 {
	chi2, _ := ChiSquare(table)
	r := len(table)
	if r == 0 {
		return 0
	}
	c := len(table[0])
	total := 0
	for i := range table {
		for j := range table[i] {
			total += table[i][j]
		}
	}
	if total == 0 {
		return 0
	}
	k := r
	if c < k {
		k = c
	}
	if k < 2 {
		return 0
	}
	v := chi2 / (float64(total) * float64(k-1))
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
