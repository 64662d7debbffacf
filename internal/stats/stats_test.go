package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanSkipsMissing(t *testing.T) {
	if got := Mean([]float64{1, math.NaN(), 3}); got != 2 {
		t.Fatalf("Mean with NaN = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); !math.IsNaN(got) {
		t.Fatalf("Mean(nil) = %v, want NaN", got)
	}
	if got := Mean([]float64{math.NaN()}); !math.IsNaN(got) {
		t.Fatalf("Mean(all-missing) = %v, want NaN", got)
	}
}

func TestVariance(t *testing.T) {
	// Known: variance of {2,4,4,4,5,5,7,9} is 4.571428... (sample, n-1)
	v := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestVarianceInsufficient(t *testing.T) {
	if got := Variance([]float64{5}); !math.IsNaN(got) {
		t.Fatalf("Variance of single value = %v, want NaN", got)
	}
}

func TestStdDevIsSqrtVariance(t *testing.T) {
	xs := []float64{1, 3, 5, 9, 11}
	if !almostEq(StdDev(xs), math.Sqrt(Variance(xs)), 1e-12) {
		t.Fatalf("StdDev != sqrt(Variance)")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, math.NaN(), -2, 7})
	if lo != -2 || hi != 7 {
		t.Fatalf("MinMax = (%v,%v), want (-2,7)", lo, hi)
	}
}

func TestMinMaxAllMissing(t *testing.T) {
	lo, hi := MinMax([]float64{math.NaN()})
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("MinMax all-missing = (%v,%v), want NaN", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
}

func TestIQROutlierRatio(t *testing.T) {
	// 19 tight values, one far outlier.
	xs := make([]float64, 0, 20)
	for i := 0; i < 19; i++ {
		xs = append(xs, float64(i%5))
	}
	xs = append(xs, 1000)
	r := IQROutlierRatio(xs, 1.5)
	if !almostEq(r, 1.0/20.0, 1e-12) {
		t.Fatalf("IQROutlierRatio = %v, want 0.05", r)
	}
}

func TestIQROutlierRatioClean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if r := IQROutlierRatio(xs, 1.5); r != 0 {
		t.Fatalf("clean outlier ratio = %v, want 0", r)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantIsZero(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson constant = %v, want 0", got)
	}
}

func TestPearsonPairwiseMissing(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 4}
	ys := []float64{2, 4, 100, 8}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Fatalf("Pearson pairwise = %v, want 1", got)
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEq(r[i], want[i], 1e-12) {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksMissingStaysNaN(t *testing.T) {
	r := Ranks([]float64{5, math.NaN(), 1})
	if !math.IsNaN(r[1]) {
		t.Fatalf("rank of missing = %v, want NaN", r[1])
	}
	if r[2] != 1 || r[0] != 2 {
		t.Fatalf("ranks = %v, want [2 NaN 1]", r)
	}
}

func TestEntropyUniform(t *testing.T) {
	if got := Entropy([]int{5, 5, 5, 5}); !almostEq(got, 2, 1e-12) {
		t.Fatalf("Entropy uniform-4 = %v, want 2 bits", got)
	}
}

func TestEntropyDegenerate(t *testing.T) {
	if got := Entropy([]int{7, 0, 0}); got != 0 {
		t.Fatalf("Entropy degenerate = %v, want 0", got)
	}
}

func TestNormalizedEntropy(t *testing.T) {
	if got := NormalizedEntropy([]int{10, 10}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("balanced normalized entropy = %v, want 1", got)
	}
	if got := NormalizedEntropy([]int{100}); got != 1 {
		t.Fatalf("single-class normalized entropy = %v, want 1 by convention", got)
	}
	skewed := NormalizedEntropy([]int{99, 1})
	if skewed >= 0.2 || skewed <= 0 {
		t.Fatalf("skewed normalized entropy = %v, want small positive", skewed)
	}
}

func TestChiSquareIndependent(t *testing.T) {
	// Perfectly independent table: chi2 = 0.
	chi2, dof := ChiSquare([][]int{{10, 20}, {20, 40}})
	if !almostEq(chi2, 0, 1e-9) || dof != 1 {
		t.Fatalf("ChiSquare = (%v,%d), want (0,1)", chi2, dof)
	}
}

func TestChiSquareKnown(t *testing.T) {
	// {{10,20},{30,5}}: expected counts 18.4615/11.5385/21.5385/13.4615,
	// each cell contributes (obs-exp)²/exp, total ≈ 18.726.
	chi2, dof := ChiSquare([][]int{{10, 20}, {30, 5}})
	if dof != 1 {
		t.Fatalf("dof = %d, want 1", dof)
	}
	if math.Abs(chi2-18.726) > 0.01 {
		t.Fatalf("chi2 = %v, want ≈18.726", chi2)
	}
}

func TestCramersVPerfectAssociation(t *testing.T) {
	v := CramersV([][]int{{50, 0}, {0, 50}})
	if !almostEq(v, 1, 1e-12) {
		t.Fatalf("CramersV diagonal = %v, want 1", v)
	}
}

func TestCramersVIndependent(t *testing.T) {
	v := CramersV([][]int{{25, 25}, {25, 25}})
	if !almostEq(v, 0, 1e-12) {
		t.Fatalf("CramersV independent = %v, want 0", v)
	}
}

// Property: Pearson is always in [-1, 1] and symmetric.
func TestPearsonPropertyBounds(t *testing.T) {
	f := func(rawX, rawY []int32) bool {
		xs := make([]float64, len(rawX))
		for i, v := range rawX {
			xs[i] = float64(v)
		}
		ys := make([]float64, len(rawY))
		for i, v := range rawY {
			ys[i] = float64(v)
		}
		r := Pearson(xs, ys)
		r2 := Pearson(ys, xs)
		return r >= -1.0000001 && r <= 1.0000001 && almostEq(r, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Entropy is non-negative and maximal for uniform counts.
func TestEntropyPropertyBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, len(raw))
		total := 0
		for i, v := range raw {
			counts[i] = int(v)
			total += int(v)
		}
		h := Entropy(counts)
		if h < 0 {
			return false
		}
		k := 0
		for _, c := range counts {
			if c > 0 {
				k++
			}
		}
		if k == 0 {
			return h == 0
		}
		return h <= math.Log2(float64(k))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bracketed by min/max.
func TestQuantilePropertyMonotone(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, hi := MinMax(xs)
		q25, q50, q75 := Quantile(xs, 0.25), Quantile(xs, 0.5), Quantile(xs, 0.75)
		return lo <= q25 && q25 <= q50 && q50 <= q75 && q75 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
