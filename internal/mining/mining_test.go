package mining

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"openbi/internal/stats"
	"openbi/internal/table"
)

// separable builds an easily learnable two-class dataset: class decided by
// x > 0, with a supporting nominal attribute and an irrelevant column.
func separable(n int, seed int64) *Dataset {
	rng := stats.NewRand(seed)
	t := table.New("sep")
	x := table.NewNumericColumn("x")
	color := table.NewNominalColumn("color", "red", "blue", "green")
	irr := table.NewNumericColumn("irr")
	cls := table.NewNominalColumn("class", "neg", "pos")
	for i := 0; i < n; i++ {
		c := i % 2
		x.AppendFloat(float64(2*c-1)*2 + rng.NormFloat64()*0.4)
		if rng.Float64() < 0.8 {
			color.AppendCode(c) // correlated with class
		} else {
			color.AppendCode(2)
		}
		irr.AppendFloat(rng.NormFloat64())
		cls.AppendCode(c)
	}
	t.MustAddColumn(x)
	t.MustAddColumn(color)
	t.MustAddColumn(irr)
	t.MustAddColumn(cls)
	return MustNewDataset(t, 3)
}

// trainAccuracy fits clf on ds and measures its training accuracy.
func trainAccuracy(t *testing.T, clf Classifier, ds *Dataset) float64 {
	t.Helper()
	if err := clf.Fit(ds); err != nil {
		t.Fatalf("%s Fit: %v", clf.Name(), err)
	}
	correct := 0
	for r := 0; r < ds.Len(); r++ {
		if clf.Predict(ds, r) == ds.Label(r) {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func allClassifiers(seed int64) []Classifier {
	return []Classifier{
		NewZeroR(), NewOneR(), NewNaiveBayes(), NewKNN(5),
		NewC45Tree(), NewCARTTree(), NewRandomForest(10, seed), NewLogistic(seed),
	}
}

func TestEveryClassifierLearnsSeparableData(t *testing.T) {
	ds := separable(300, 1)
	for _, clf := range allClassifiers(7) {
		acc := trainAccuracy(t, clf, ds)
		min := 0.9
		if clf.Name() == "zero-r" {
			min = 0.45 // majority baseline on balanced data
		}
		if acc < min {
			t.Errorf("%s train accuracy = %.3f, want >= %.2f", clf.Name(), acc, min)
		}
	}
}

func TestEveryClassifierHandlesMissingCells(t *testing.T) {
	ds := separable(200, 2)
	rng := stats.NewRand(3)
	tb := ds.Table() // table-backed dataset: this is the live table
	for r := 0; r < ds.Len(); r++ {
		for _, j := range ds.AttrCols() {
			if rng.Float64() < 0.2 {
				tb.SetMissing(r, j)
			}
		}
	}
	for _, clf := range allClassifiers(7) {
		acc := trainAccuracy(t, clf, ds)
		if acc < 0.4 {
			t.Errorf("%s collapsed on missing data: %.3f", clf.Name(), acc)
		}
	}
}

func TestEveryClassifierRejectsEmptyTraining(t *testing.T) {
	empty := separable(10, 1).Subset(nil)
	for _, clf := range allClassifiers(1) {
		if err := clf.Fit(empty); err == nil {
			t.Errorf("%s accepted an empty training set", clf.Name())
		}
	}
}

func TestProbaSumsToOne(t *testing.T) {
	ds := separable(150, 4)
	for _, clf := range allClassifiers(9) {
		prob, ok := clf.(ProbClassifier)
		if !ok {
			continue
		}
		if err := clf.Fit(ds); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 20; r++ {
			p := prob.Proba(ds, r)
			sum := 0.0
			for _, v := range p {
				if v < -1e-9 {
					t.Fatalf("%s negative probability %v", clf.Name(), p)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s Proba sums to %v", clf.Name(), sum)
			}
		}
	}
}

func TestPredictionsMatchArgmaxProba(t *testing.T) {
	ds := separable(150, 4)
	for _, clf := range allClassifiers(9) {
		prob, ok := clf.(ProbClassifier)
		if !ok {
			continue
		}
		if err := clf.Fit(ds); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 30; r++ {
			p := prob.Proba(ds, r)
			pred := clf.Predict(ds, r)
			if p[pred] < p[argmax(p)]-1e-9 {
				t.Fatalf("%s Predict disagrees with Proba argmax at row %d", clf.Name(), r)
			}
		}
	}
}

func TestZeroRMajority(t *testing.T) {
	ds := separable(100, 1)
	// Make "pos" (code 1) the clear majority.
	keep := []int{}
	for r := 0; r < ds.Len(); r++ {
		if ds.Label(r) == 1 || r%4 == 0 {
			keep = append(keep, r)
		}
	}
	sub := ds.Subset(keep)
	z := NewZeroR()
	if err := z.Fit(sub); err != nil {
		t.Fatal(err)
	}
	if z.Predict(sub, 0) != 1 {
		t.Fatal("ZeroR should predict the majority class")
	}
}

func TestOneRSelectsInformativeAttribute(t *testing.T) {
	ds := separable(300, 5)
	o := NewOneR()
	if err := o.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if got := ds.T.ColumnName(o.attr); got != "x" && got != "color" {
		t.Fatalf("OneR chose %q, want an informative attribute", got)
	}
}

func TestNaiveBayesRobustToMissingAtPredict(t *testing.T) {
	ds := separable(200, 6)
	nb := NewNaiveBayes()
	if err := nb.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// Materialize the subset so it can be mutated without touching ds.
	probeT := ds.Subset([]int{0, 1, 2, 3}).Table()
	for j := 0; j < probeT.NumCols(); j++ {
		if j == ds.ClassCol {
			continue
		}
		for r := 0; r < probeT.NumRows(); r++ {
			probeT.SetMissing(r, j)
		}
	}
	probe := MustNewDataset(probeT, ds.ClassCol)
	// All attributes missing: prediction must fall back to the prior
	// without panicking, and Proba must stay a distribution.
	for r := 0; r < probe.Len(); r++ {
		p := nb.Proba(probe, r)
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("prior fallback distribution sums to %v", sum)
		}
	}
}

func TestKNNWeightedBeatsOrEqualsPlainOnNoisyBoundary(t *testing.T) {
	ds := separable(200, 8)
	plain := &KNN{K: 5}
	weighted := &KNN{K: 5, Weighted: true}
	accP := trainAccuracy(t, plain, ds)
	accW := trainAccuracy(t, weighted, ds)
	if accW < accP-0.05 {
		t.Fatalf("weighted kNN much worse than plain: %v vs %v", accW, accP)
	}
}

func TestKNNNames(t *testing.T) {
	if NewKNN(3).Name() != "3-nn" {
		t.Fatal("kNN name wrong")
	}
	if (&KNN{}).Name() != "5-nn" {
		t.Fatal("default kNN name wrong")
	}
}

func TestDecisionTreeIgnoresIrrelevantAttribute(t *testing.T) {
	ds := separable(400, 9)
	dt := NewC45Tree()
	if err := dt.Fit(ds); err != nil {
		t.Fatal(err)
	}
	dump := dt.Dump(ds)
	if strings.Contains(dump, "irr") {
		t.Fatalf("pruned tree split on the irrelevant attribute:\n%s", dump)
	}
}

func TestDecisionTreeDumpShape(t *testing.T) {
	ds := separable(200, 10)
	dt := NewC45Tree()
	if err := dt.Fit(ds); err != nil {
		t.Fatal(err)
	}
	dump := dt.Dump(ds)
	if !strings.Contains(dump, "->") {
		t.Fatalf("dump has no leaves:\n%s", dump)
	}
	if dt.Leaves() < 2 {
		t.Fatalf("tree did not split: %d leaves", dt.Leaves())
	}
	if dt.Depth() < 1 {
		t.Fatal("tree depth 0 after split")
	}
}

func TestDecisionTreeMaxDepthRespected(t *testing.T) {
	ds := separable(400, 11)
	dt := &DecisionTree{Criterion: GainRatio, MaxDepth: 1, MinLeaf: 1}
	if err := dt.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if dt.Depth() > 1 {
		t.Fatalf("depth = %d, want <= 1", dt.Depth())
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	// Label noise: pruned tree must be no larger than unpruned.
	ds := separable(400, 12)
	rng := stats.NewRand(13)
	cls := ds.Class()
	for r := 0; r < ds.Len(); r++ {
		if rng.Float64() < 0.25 {
			cls.Cats[r] = 1 - cls.Cats[r]
		}
	}
	unpruned := &DecisionTree{Criterion: GainRatio, Prune: false}
	pruned := &DecisionTree{Criterion: GainRatio, Prune: true}
	if err := unpruned.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := pruned.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if pruned.Leaves() > unpruned.Leaves() {
		t.Fatalf("pruned leaves %d > unpruned %d", pruned.Leaves(), unpruned.Leaves())
	}
	if pruned.Leaves() >= unpruned.Leaves() && unpruned.Leaves() > 4 {
		// Expect a strict reduction on this much noise.
		t.Fatalf("pruning did nothing: %d vs %d", pruned.Leaves(), unpruned.Leaves())
	}
}

func TestCARTAndC45Differ(t *testing.T) {
	if NewC45Tree().Name() != "c45" || NewCARTTree().Name() != "cart" {
		t.Fatal("tree names wrong")
	}
	if NewC45Tree().Criterion != GainRatio || NewCARTTree().Criterion != Gini {
		t.Fatal("tree criteria wrong")
	}
}

func TestRandomForestDeterministicGivenSeed(t *testing.T) {
	ds := separable(200, 14)
	a := NewRandomForest(8, 5)
	b := NewRandomForest(8, 5)
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ds.Len(); r++ {
		if a.Predict(ds, r) != b.Predict(ds, r) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestLogisticLearnsLinearBoundary(t *testing.T) {
	ds := separable(300, 15)
	lg := NewLogistic(1)
	if acc := trainAccuracy(t, lg, ds); acc < 0.93 {
		t.Fatalf("logistic accuracy = %v on linearly separable data", acc)
	}
}

func TestDatasetValidation(t *testing.T) {
	tb := table.New("t")
	x := table.NewNumericColumn("x")
	x.AppendFloat(1)
	tb.MustAddColumn(x)
	if _, err := NewDataset(tb, 0); err == nil {
		t.Fatal("numeric class should be rejected")
	}
	if _, err := NewDataset(tb, 5); err == nil {
		t.Fatal("out-of-range class should be rejected")
	}
	if _, err := NewDatasetByName(tb, "nope"); err == nil {
		t.Fatal("unknown class name should be rejected")
	}
}

func TestDatasetLabeledRowsSkipsMissing(t *testing.T) {
	ds := separable(10, 16)
	ds.Class().SetMissing(3)
	ds.Class().SetMissing(7)
	if got := len(ds.LabeledRows()); got != 8 {
		t.Fatalf("labeled rows = %d, want 8", got)
	}
}

func TestRegistryLookup(t *testing.T) {
	names := SuiteNames()
	if len(names) != 8 {
		t.Fatalf("suite size = %d, want 8", len(names))
	}
	for _, n := range names {
		f, err := Lookup(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := f().Name(); got != n {
			t.Fatalf("factory name %q != registry name %q", got, n)
		}
	}
	if _, err := Lookup("nonsense", 1); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

// Property: tree predictions are always valid class codes.
func TestTreePredictionsValidProperty(t *testing.T) {
	ds := separable(120, 17)
	dt := NewCARTTree()
	if err := dt.Fit(ds); err != nil {
		t.Fatal(err)
	}
	f := func(row uint8) bool {
		r := int(row) % ds.Len()
		p := dt.Predict(ds, r)
		return p >= 0 && p < ds.NumClasses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
