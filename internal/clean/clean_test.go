package clean

import (
	"math"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/inject"
	"openbi/internal/synth"
	"openbi/internal/table"
)

func dirtyFixture(t *testing.T, specs []inject.Spec) (*table.Table, *table.Table, int) {
	t.Helper()
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 200, Seed: 3})
	dirty, err := inject.Apply(ds.T, ds.ClassCol, specs, 99)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Table(), dirty, ds.ClassCol
}

func TestImputerMeanMode(t *testing.T) {
	_, dirty, cc := dirtyFixture(t, []inject.Spec{{Criterion: dq.Completeness, Severity: 0.3}})
	out, changed, err := Imputer{Strategy: MeanMode}.Apply(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if out.MissingCells() != 0 {
		t.Fatalf("cells still missing: %d", out.MissingCells())
	}
	if changed != dirty.MissingCells() {
		t.Fatalf("changed = %d, want %d", changed, dirty.MissingCells())
	}
	if dirty.MissingCells() == 0 {
		t.Fatal("fixture was not dirty")
	}
	_ = cc
}

func TestImputerMedianUsesMedian(t *testing.T) {
	tb := table.New("t")
	c := table.NewNumericColumn("v")
	for _, v := range []float64{1, 2, 3, 1000} {
		c.AppendFloat(v)
	}
	c.AppendMissing()
	tb.MustAddColumn(c)
	out, _, err := Imputer{Strategy: Median}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Float(4, 0); got != 2.5 {
		t.Fatalf("median fill = %v, want 2.5", got)
	}
}

func TestImputerExcludesColumns(t *testing.T) {
	tb := table.New("t")
	c := table.NewNumericColumn("v")
	c.AppendFloat(1)
	c.AppendMissing()
	tb.MustAddColumn(c)
	out, changed, err := Imputer{Strategy: MeanMode, ExcludeColumns: []string{"v"}}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 || !out.IsMissing(1, 0) {
		t.Fatal("excluded column was imputed")
	}
}

func TestImputerKNNUsesNeighbours(t *testing.T) {
	// Two well-separated clusters; a gap in cluster B must be filled with
	// B-like values, not the global mean.
	tb := table.New("t")
	x := table.NewNumericColumn("x")
	y := table.NewNumericColumn("y")
	for i := 0; i < 10; i++ {
		x.AppendFloat(0 + float64(i)*0.01)
		y.AppendFloat(0 + float64(i)*0.01)
	}
	for i := 0; i < 10; i++ {
		x.AppendFloat(100 + float64(i)*0.01)
		if i == 5 {
			y.AppendMissing()
		} else {
			y.AppendFloat(100 + float64(i)*0.01)
		}
	}
	tb.MustAddColumn(x)
	tb.MustAddColumn(y)
	out, changed, err := Imputer{Strategy: KNNImpute, K: 3}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Fatalf("changed = %d", changed)
	}
	if got := out.Float(15, 1); got < 90 {
		t.Fatalf("kNN fill = %v, want cluster-B-like (~100), not global mean (~50)", got)
	}
}

func TestImputerKNNNominalMode(t *testing.T) {
	tb := table.New("t")
	x := table.NewNumericColumn("x")
	c := table.NewNominalColumn("c", "a", "b")
	for i := 0; i < 6; i++ {
		x.AppendFloat(float64(i % 2 * 100))
		if i == 0 {
			c.AppendMissing()
		} else if i%2 == 0 {
			c.AppendCode(0)
		} else {
			c.AppendCode(1)
		}
	}
	tb.MustAddColumn(x)
	tb.MustAddColumn(c)
	out, _, err := Imputer{Strategy: KNNImpute, K: 2}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 has x=0; nearest are rows 2,4 (x=0) with label "a".
	if out.Column(1).Label(out.Cat(0, 1)) != "a" {
		t.Fatalf("kNN nominal fill = %q, want a", out.Column(1).Label(out.Cat(0, 1)))
	}
}

func TestDedupExactRemovesInjected(t *testing.T) {
	_, dirty, _ := dirtyFixture(t, []inject.Spec{{Criterion: dq.Duplicates, Severity: 0.3}})
	out, removed, err := Dedup{}.Apply(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("no duplicates removed")
	}
	p := dq.Measure(out, dq.MeasureOptions{ClassColumn: out.NumCols() - 1})
	if p.DuplicateRatio != 0 {
		t.Fatalf("residual duplicates = %v", p.DuplicateRatio)
	}
}

func TestDedupFuzzyCatchesPerturbedCopies(t *testing.T) {
	tb := table.New("t")
	name := table.NewNominalColumn("name")
	v := table.NewNumericColumn("v")
	// original + noisy near-copy + distinct row
	name.AppendLabel("Alicante")
	v.AppendFloat(100)
	name.AppendLabel("Alicante ") // whitespace variant, same after normalize
	v.AppendFloat(100.0001)
	name.AppendLabel("Matanzas")
	v.AppendFloat(50)
	tb.MustAddColumn(name)
	tb.MustAddColumn(v)

	out, removed, err := Dedup{Fuzzy: true, MaxEditDistance: 1, Tolerance: 0.01}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || out.NumRows() != 2 {
		t.Fatalf("fuzzy dedup removed %d rows, want 1 (rows=%d)", removed, out.NumRows())
	}
}

func TestDedupKeepsFirstOccurrence(t *testing.T) {
	tb := table.New("t")
	v := table.NewNumericColumn("v")
	for _, x := range []float64{5, 7, 5} {
		v.AppendFloat(x)
	}
	tb.MustAddColumn(v)
	out, _, err := Dedup{}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Float(0, 0) != 5 || out.Float(1, 0) != 7 {
		t.Fatalf("dedup order wrong: %v rows", out.NumRows())
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"flaw", "lawn", 2}, {"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestStandardizerDatesAndCase(t *testing.T) {
	tb := table.New("t")
	d := table.NewNominalColumn("date")
	d.AppendLabel("2020-01-15")
	d.AppendLabel("15/01/2020")
	d.AppendLabel("Jan 2, 2006")
	d.AppendLabel("not a date")
	city := table.NewNominalColumn("city")
	city.AppendLabel("  Alicante  ")
	city.AppendLabel("ALICANTE")
	city.AppendLabel("alicante")
	city.AppendLabel("Berlin")
	tb.MustAddColumn(d)
	tb.MustAddColumn(city)

	out, changed, err := Standardizer{Lowercase: true, Dates: true}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("nothing standardized")
	}
	dc := out.Column(0)
	if dc.Label(dc.Cats[1]) != "2020-01-15" {
		t.Fatalf("date rewrite = %q", dc.Label(dc.Cats[1]))
	}
	if dc.Label(dc.Cats[3]) != "not a date" {
		t.Fatal("non-date mangled")
	}
	cc := out.Column(1)
	if cc.Cats[0] != cc.Cats[1] || cc.Cats[1] != cc.Cats[2] {
		t.Fatal("case variants not merged to one code")
	}
	if cc.NumLevels() != 2 {
		t.Fatalf("city levels = %d, want 2", cc.NumLevels())
	}
}

func TestOutlierFilter(t *testing.T) {
	tb := table.New("t")
	v := table.NewNumericColumn("v")
	for i := 0; i < 50; i++ {
		v.AppendFloat(float64(i % 10))
	}
	v.AppendFloat(1e6)
	tb.MustAddColumn(v)
	out, removed, err := OutlierFilter{K: 3}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || out.NumRows() != 50 {
		t.Fatalf("removed = %d rows = %d", removed, out.NumRows())
	}
}

func TestOutlierFilterExcludes(t *testing.T) {
	tb := table.New("t")
	v := table.NewNumericColumn("v")
	for i := 0; i < 20; i++ {
		v.AppendFloat(1)
	}
	v.AppendFloat(1e9)
	tb.MustAddColumn(v)
	_, removed, err := OutlierFilter{K: 3, ExcludeColumns: []string{"v"}}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatal("excluded column still filtered")
	}
}

func TestPipelineRunsAllStepsInOrder(t *testing.T) {
	_, dirty, _ := dirtyFixture(t, []inject.Spec{
		{Criterion: dq.Duplicates, Severity: 0.2},
		{Criterion: dq.Completeness, Severity: 0.2},
	})
	p := Pipeline{Steps: []Step{
		Dedup{},
		Imputer{Strategy: MeanMode, ExcludeColumns: []string{"class"}},
	}}
	out, reports, err := p.Run(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Step != "dedup-exact" || reports[1].Step != "impute-mean-mode" {
		t.Fatalf("reports = %+v", reports)
	}
	if out.MissingCells() != 0 {
		t.Fatal("pipeline left missing cells")
	}
	prof := dq.Measure(out, dq.MeasureOptions{ClassColumn: out.NumCols() - 1})
	if prof.DuplicateRatio > 0.01 {
		t.Fatalf("pipeline left duplicates: %v", prof.DuplicateRatio)
	}
}

func TestCleaningRecoversCompleteness(t *testing.T) {
	clean, dirty, cc := dirtyFixture(t, []inject.Spec{{Criterion: dq.Completeness, Severity: 0.4}})
	out, _, err := Imputer{Strategy: MeanMode, ExcludeColumns: []string{"class"}}.Apply(dirty)
	if err != nil {
		t.Fatal(err)
	}
	// Imputation restores completeness; imputed means stay near truth.
	p := dq.Measure(out, dq.MeasureOptions{ClassColumn: cc})
	if p.Completeness != 1 {
		t.Fatalf("completeness = %v", p.Completeness)
	}
	origMean := 0.0
	newMean := 0.0
	for r := 0; r < clean.NumRows(); r++ {
		origMean += clean.Float(r, 0)
		newMean += out.Float(r, 0)
	}
	origMean /= float64(clean.NumRows())
	newMean /= float64(out.NumRows())
	if math.Abs(origMean-newMean) > 0.3 {
		t.Fatalf("imputed mean drifted: %v vs %v", newMean, origMean)
	}
}

// TestDedupQuestionMarkLabelVsMissing is the regression test for the
// row-key collision: a row whose nominal cell is the literal "?" category
// and a row whose cell is missing rendered the same key, so exact dedup
// dropped one of them. They are distinct rows and both must survive.
func TestDedupQuestionMarkLabelVsMissing(t *testing.T) {
	tb := table.New("q")
	c := table.NewNominalColumn("c", "?")
	v := table.NewNumericColumn("v")
	c.AppendCode(0) // literal "?" label
	v.AppendFloat(1)
	c.AppendMissing() // genuinely missing cell
	v.AppendFloat(1)
	tb.MustAddColumn(c)
	tb.MustAddColumn(v)

	out, removed, err := Dedup{}.Apply(tb)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || out.NumRows() != 2 {
		t.Fatalf("dedup merged a %q-label row with a missing-cell row: removed=%d rows=%d", "?", removed, out.NumRows())
	}
}
