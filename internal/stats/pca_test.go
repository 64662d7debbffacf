package stats

import (
	"math"
	"testing"
)

// correlatedData builds two exactly linearly dependent columns plus one
// independent one.
func correlatedData(n int) [][]float64 {
	rng := NewRand(7)
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = 2 * a[i] // perfectly dependent
		c[i] = rng.NormFloat64()
	}
	return [][]float64{a, b, c}
}

func TestFitPCAErrors(t *testing.T) {
	if _, err := FitPCA(nil); err == nil {
		t.Fatal("FitPCA(nil) should error")
	}
	if _, err := FitPCA([][]float64{{}}); err == nil {
		t.Fatal("FitPCA(no rows) should error")
	}
}

func TestPCACapturesDependence(t *testing.T) {
	p, err := FitPCA(correlatedData(500))
	if err != nil {
		t.Fatal(err)
	}
	ev := p.ExplainedVariance()
	// Two of three dims are one line: 2 components must explain ~everything.
	if ev[0]+ev[1] < 0.999 {
		t.Fatalf("first two components explain %v, want ~1", ev[0]+ev[1])
	}
	if p.Eigenvalue[2] > 1e-6 {
		t.Fatalf("third eigenvalue = %v, want ~0", p.Eigenvalue[2])
	}
}

func TestPCAEigenvaluesSorted(t *testing.T) {
	p, err := FitPCA(correlatedData(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.Eigenvalue); i++ {
		if p.Eigenvalue[i] > p.Eigenvalue[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", p.Eigenvalue)
		}
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	p, err := FitPCA(correlatedData(300))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Component {
		for j := range p.Component {
			dot := 0.0
			for k := range p.Component[i] {
				dot += p.Component[i][k] * p.Component[j][k]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("component dot(%d,%d) = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestPCATotalVariancePreserved(t *testing.T) {
	cols := correlatedData(400)
	p, err := FitPCA(cols)
	if err != nil {
		t.Fatal(err)
	}
	totalVar := 0.0
	for _, c := range cols {
		totalVar += Variance(c)
	}
	totalEig := 0.0
	for _, e := range p.Eigenvalue {
		totalEig += e
	}
	if math.Abs(totalVar-totalEig) > 1e-6*totalVar {
		t.Fatalf("trace mismatch: vars=%v eigs=%v", totalVar, totalEig)
	}
}

func TestPCATransformDecorrelates(t *testing.T) {
	cols := correlatedData(500)
	p, err := FitPCA(cols)
	if err != nil {
		t.Fatal(err)
	}
	proj := p.Transform(cols, 2)
	if len(proj) != 2 || len(proj[0]) != 500 {
		t.Fatalf("Transform shape = %dx%d, want 2x500", len(proj), len(proj[0]))
	}
	if r := math.Abs(Pearson(proj[0], proj[1])); r > 0.02 {
		t.Fatalf("projected correlation = %v, want ~0", r)
	}
}

func TestPCATransformVarianceMatchesEigenvalue(t *testing.T) {
	cols := correlatedData(800)
	p, _ := FitPCA(cols)
	proj := p.Transform(cols, 1)
	v := Variance(proj[0])
	if math.Abs(v-p.Eigenvalue[0]) > 0.02*p.Eigenvalue[0] {
		t.Fatalf("PC1 variance %v vs eigenvalue %v", v, p.Eigenvalue[0])
	}
}

func TestPCAComponentsFor(t *testing.T) {
	p, _ := FitPCA(correlatedData(300))
	if k := p.ComponentsFor(0.99); k != 2 {
		t.Fatalf("ComponentsFor(0.99) = %d, want 2", k)
	}
	if k := p.ComponentsFor(1.1); k != 3 {
		t.Fatalf("ComponentsFor(>1) = %d, want all (3)", k)
	}
}

func TestPCAHandlesMissing(t *testing.T) {
	cols := correlatedData(100)
	cols[0][3] = math.NaN()
	cols[2][50] = math.NaN()
	p, err := FitPCA(cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Eigenvalue {
		if math.IsNaN(e) {
			t.Fatalf("NaN eigenvalue with missing input: %v", p.Eigenvalue)
		}
	}
	proj := p.Transform(cols, 2)
	for _, col := range proj {
		for _, v := range col {
			if math.IsNaN(v) {
				t.Fatal("NaN in projection of missing data")
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := NewRand(1)
	s := SampleWithoutReplacement(rng, 10, 4)
	if len(s) != 4 {
		t.Fatalf("sample size = %d, want 4", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	if full := SampleWithoutReplacement(NewRand(2), 3, 10); len(full) != 3 {
		t.Fatalf("oversized k should return full perm, got %v", full)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	rng := NewRand(3)
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[Categorical(rng, []float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestCategoricalZeroWeights(t *testing.T) {
	if got := Categorical(NewRand(1), []float64{0, 0}); got != 0 {
		t.Fatalf("zero-sum weights = %d, want 0", got)
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := NewRand(11)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = Gaussian(rng, 10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.1 {
		t.Fatalf("gaussian mean = %v", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 0.1 {
		t.Fatalf("gaussian sd = %v", sd)
	}
}
