package synth

import (
	"math"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/mining"
	"openbi/internal/rdf"
	"openbi/internal/table"
)

func TestMakeClassificationDefaults(t *testing.T) {
	ds, err := MakeClassification(ClassificationSpec{Rows: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 100 {
		t.Fatalf("rows = %d", ds.Len())
	}
	// 6 numeric + 2 nominal + class.
	if ds.T.NumCols() != 9 {
		t.Fatalf("cols = %d, want 9", ds.T.NumCols())
	}
	if ds.NumClasses() != 2 {
		t.Fatalf("classes = %d", ds.NumClasses())
	}
	if ds.T.ColumnName(ds.ClassCol) != "class" {
		t.Fatal("class column name wrong")
	}
}

func TestMakeClassificationValidation(t *testing.T) {
	if _, err := MakeClassification(ClassificationSpec{Rows: 0}); err == nil {
		t.Fatal("Rows 0 should error")
	}
}

func TestMakeClassificationDeterministic(t *testing.T) {
	a := MustMakeClassification(ClassificationSpec{Rows: 80, Seed: 5})
	b := MustMakeClassification(ClassificationSpec{Rows: 80, Seed: 5})
	if !table.Equal(a.T, b.T) {
		t.Fatal("same seed, different data")
	}
	c := MustMakeClassification(ClassificationSpec{Rows: 80, Seed: 6})
	if table.Equal(a.T, c.T) {
		t.Fatal("different seed, same data")
	}
}

func TestMakeClassificationLearnable(t *testing.T) {
	ds := MustMakeClassification(ClassificationSpec{Rows: 400, Seed: 2, Separation: 2.5})
	m, err := eval.CrossValidate(func() mining.Classifier { return mining.NewNaiveBayes() }, ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kappa < 0.5 {
		t.Fatalf("generated data unlearnable: kappa = %v", m.Kappa)
	}
}

func TestMakeClassificationSeparationMatters(t *testing.T) {
	easy := MustMakeClassification(ClassificationSpec{Rows: 400, Seed: 3, Separation: 3})
	hard := MustMakeClassification(ClassificationSpec{Rows: 400, Seed: 3, Separation: 0.3})
	f := func() mining.Classifier { return mining.NewLogistic(1) }
	me, err := eval.CrossValidate(f, easy, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := eval.CrossValidate(f, hard, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if me.Kappa <= mh.Kappa+0.1 {
		t.Fatalf("separation had no effect: easy %v vs hard %v", me.Kappa, mh.Kappa)
	}
}

func TestMakeClassificationImbalance(t *testing.T) {
	ds := MustMakeClassification(ClassificationSpec{Rows: 1000, Seed: 4, ClassBalance: 0.3})
	counts := ds.ClassCounts()
	if counts[1] >= counts[0] {
		t.Fatalf("balance 0.3 should shrink class B: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-0.3) > 0.08 {
		t.Fatalf("class ratio = %v, want ≈0.3", ratio)
	}
}

func TestMakeClassificationIrrelevant(t *testing.T) {
	ds := MustMakeClassification(ClassificationSpec{Rows: 50, Seed: 5, Irrelevant: 4})
	if ds.T.ColumnIndex("irr1") < 0 || ds.T.ColumnIndex("irr4") < 0 {
		t.Fatalf("irrelevant columns missing: %v", ds.T.ColumnNames())
	}
}

func TestMakeClassificationMulticlass(t *testing.T) {
	ds := MustMakeClassification(ClassificationSpec{Rows: 300, Seed: 6, Classes: 4})
	if ds.NumClasses() != 4 {
		t.Fatalf("classes = %d", ds.NumClasses())
	}
	counts := ds.ClassCounts()
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d empty: %v", c, counts)
		}
	}
}

// countOfType counts the distinct subjects typed classIRI in g.
func countOfType(g *rdf.Graph, classIRI string) int {
	typ, class := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(classIRI)
	subs := make(map[rdf.Term]bool)
	for _, tr := range g.Triples() {
		if tr.P == typ && tr.O == class {
			subs[tr.S] = true
		}
	}
	return len(subs)
}

func checkLOD(t *testing.T, g *rdf.Graph, classIRI string, wantEntities int) *table.Table {
	t.Helper()
	if n := countOfType(g, classIRI); n < wantEntities {
		t.Fatalf("entities of %s = %d, want >= %d", classIRI, n, wantEntities)
	}
	tb, err := rdf.Project(g, rdf.ProjectOptions{Class: rdf.NewIRI(classIRI)})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestMunicipalBudgetLOD(t *testing.T) {
	g, err := MunicipalBudgetLOD(LODSpec{Entities: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := checkLOD(t, g, NSDef+"Municipality", 150)
	for _, col := range []string{"population", "budgetEducationPerCapita", "unemploymentRate", "fundingLevel", "inRegion"} {
		if tb.ColumnIndex(col) < 0 {
			t.Fatalf("projected column %q missing: %v", col, tb.ColumnNames())
		}
	}
	// Target must be learnable: three levels present.
	lv := tb.ColumnByName("fundingLevel")
	if lv.Kind != table.Nominal || lv.NumLevels() < 2 {
		t.Fatalf("fundingLevel levels = %d", lv.NumLevels())
	}
	// Region layer exists and is linked.
	if regions := countOfType(g, NSDef+"Region"); regions != 8 {
		t.Fatalf("regions = %d", regions)
	}
}

func TestMunicipalLODLearnable(t *testing.T) {
	g, err := MunicipalBudgetLOD(LODSpec{Entities: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := rdf.Project(g, rdf.ProjectOptions{Class: rdf.NewIRI(NSDef + "Municipality")})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the free-text label column; it is an identifier.
	tb = tb.DropColumn("label")
	ds, err := mining.NewDatasetByName(tb, "fundingLevel")
	if err != nil {
		t.Fatal(err)
	}
	m, err := eval.CrossValidate(func() mining.Classifier { return mining.NewC45Tree() }, ds, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kappa < 0.5 {
		t.Fatalf("LOD target unlearnable: kappa = %v", m.Kappa)
	}
}

func TestMunicipalLODDirtiness(t *testing.T) {
	cleanG, _ := MunicipalBudgetLOD(LODSpec{Entities: 300, Seed: 3})
	dirtyG, _ := MunicipalBudgetLOD(LODSpec{Entities: 300, Seed: 3, Dirtiness: 0.4})
	cleanT, _ := rdf.Project(cleanG, rdf.ProjectOptions{Class: rdf.NewIRI(NSDef + "Municipality")})
	dirtyT, _ := rdf.Project(dirtyG, rdf.ProjectOptions{Class: rdf.NewIRI(NSDef + "Municipality")})

	pc := dq.Measure(cleanT, dq.MeasureOptions{ClassColumn: -1})
	pd := dq.Measure(dirtyT, dq.MeasureOptions{ClassColumn: -1})
	if pd.Completeness >= pc.Completeness-0.1 {
		t.Fatalf("dirtiness did not reduce completeness: clean %v dirty %v",
			pc.Completeness, pd.Completeness)
	}
	// Dirty graph publishes mirror entities (possibly sameAs-linked).
	if dirtyG.Stats().SameAsLinks == 0 {
		t.Fatal("dirty LOD should contain owl:sameAs links")
	}
	if cleanG.Stats().SameAsLinks != 0 {
		t.Fatal("clean LOD should not contain sameAs mirrors")
	}
}

func TestAirQualityLOD(t *testing.T) {
	g, err := AirQualityLOD(LODSpec{Entities: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb := checkLOD(t, g, NSDef+"Station", 120)
	for _, col := range []string{"no2", "pm10", "alertLevel", "zoneType", "inCity"} {
		if tb.ColumnIndex(col) < 0 {
			t.Fatalf("column %q missing: %v", col, tb.ColumnNames())
		}
	}
	if tb.ColumnByName("no2").Kind != table.Numeric {
		t.Fatal("no2 should project numeric")
	}
}

func TestEducationLOD(t *testing.T) {
	g, err := EducationLOD(LODSpec{Entities: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tb := checkLOD(t, g, NSDef+"School", 100)
	if tb.ColumnIndex("performance") < 0 || tb.ColumnIndex("dropoutRate") < 0 {
		t.Fatalf("columns: %v", tb.ColumnNames())
	}
}

func TestLODGeneratorsValidate(t *testing.T) {
	if _, err := MunicipalBudgetLOD(LODSpec{}); err == nil {
		t.Fatal("zero entities should error")
	}
	if _, err := AirQualityLOD(LODSpec{}); err == nil {
		t.Fatal("zero entities should error")
	}
	if _, err := EducationLOD(LODSpec{}); err == nil {
		t.Fatal("zero entities should error")
	}
}

func TestLODDeterministic(t *testing.T) {
	a, _ := MunicipalBudgetLOD(LODSpec{Entities: 50, Seed: 9})
	b, _ := MunicipalBudgetLOD(LODSpec{Entities: 50, Seed: 9})
	if a.Len() != b.Len() {
		t.Fatal("same seed, different triple count")
	}
	for _, tr := range a.Triples() {
		if !b.Has(tr) {
			t.Fatalf("same seed, missing triple %v", tr)
		}
	}
}
