package mining

import (
	"slices"
	"testing"

	"openbi/internal/stats"
)

// TestReusedScoresNeverGoStale drives the classifiers that keep the scores
// of the last row they scored through an interleaving that would expose a
// record keyed on the row index alone (B is a shuffled view of A, so row r
// names a different instance in each) or one that survives a refit. Every
// answer must equal the answer of a classifier fitted just for that
// question.
func TestReusedScoresNeverGoStale(t *testing.T) {
	a := tieProneDataset(17, 90)
	b := a.Subset(stats.NewRand(3).Perm(a.Len()))
	half := a.Len() / 2
	rows := make([]int, a.Len())
	for i := range rows {
		rows[i] = i
	}
	fold1, fold2 := a.Subset(rows[:half]), a.Subset(rows[half:])

	makers := []func() ProbClassifier{
		func() ProbClassifier { return NewKNN(5) },
		func() ProbClassifier { return NewRandomForest(7, 5) },
		func() ProbClassifier { return NewLogistic(5) },
		func() ProbClassifier { return NewNaiveBayes() },
	}
	for _, mk := range makers {
		fitted := func(train *Dataset) ProbClassifier {
			c := mk()
			if err := c.Fit(train); err != nil {
				t.Fatalf("%s Fit: %v", c.Name(), err)
			}
			return c
		}
		freshPredict := func(train, ds *Dataset, r int) int { return fitted(train).Predict(ds, r) }
		freshProba := func(train, ds *Dataset, r int) []float64 { return fitted(train).Proba(ds, r) }

		name := mk().Name()
		// r separates A from B under fold1; r2 separates fold1 from fold2
		// on A. Without such rows a stale answer could pass unnoticed.
		r, r2 := -1, -1
		for i := 0; i < a.Len() && (r < 0 || r2 < 0); i++ {
			pa := freshProba(fold1, a, i)
			if r < 0 && !slices.Equal(pa, freshProba(fold1, b, i)) {
				r = i
				continue
			}
			if r2 < 0 && !slices.Equal(pa, freshProba(fold2, a, i)) {
				r2 = i
			}
		}
		if r < 0 || r2 < 0 {
			t.Fatalf("%s: fixture has no distinguishing rows (r=%d, r2=%d)", name, r, r2)
		}

		clf := fitted(fold1)
		train := fold1
		checkPredict := func(step string, ds *Dataset, row int) {
			t.Helper()
			if got, want := clf.Predict(ds, row), freshPredict(train, ds, row); got != want {
				t.Errorf("%s %s: Predict = %d, fresh classifier says %d", name, step, got, want)
			}
		}
		checkProba := func(step string, ds *Dataset, row int) {
			t.Helper()
			if got, want := clf.Proba(ds, row), freshProba(train, ds, row); !slices.Equal(got, want) {
				t.Errorf("%s %s: Proba = %v, fresh classifier says %v", name, step, got, want)
			}
		}
		checkPredict("Predict(A,r)", a, r)
		checkProba("Proba(B,r)", b, r)
		checkProba("Proba(A,r)", a, r)
		checkPredict("Predict(A,r2)", a, r2)
		if err := clf.Fit(fold2); err != nil {
			t.Fatal(err)
		}
		train = fold2
		checkProba("refit, Proba(A,r2)", a, r2)
		checkProba("refit, Proba(A,r)", a, r)
	}
}
