package kb

import (
	"bytes"
	"math"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/eval"
)

// seedKB builds a small hand-crafted knowledge base with two algorithms:
// "robust" degrades slowly under label noise, "fragile" fast; under
// completeness the roles reverse. Measured severities equal injected plus
// a floor of 0.1 for label-noise (mimicking the 1-NN estimator bias).
func seedKB() *KnowledgeBase {
	k := New()
	add := func(alg, crit string, injected, measured, kappa float64, measures map[string]float64) {
		k.Add(Record{
			Algorithm: alg, Criterion: crit, Severity: injected,
			MeasuredSeverity: measured, MeasuredAll: measures,
			Dataset: "unit", Folds: 5,
			Metrics: eval.Metrics{Kappa: kappa, Accuracy: (kappa + 1) / 2},
		})
	}
	cleanMeasures := map[string]float64{
		"label-noise": 0.1, "completeness": 0, "correlation": 0.05,
	}
	for _, alg := range []string{"robust", "fragile"} {
		base := 0.8
		if alg == "fragile" {
			base = 0.85
		}
		add(alg, "clean", 0, 0, base, cleanMeasures)
	}
	// Label noise curves.
	add("robust", "label-noise", 0.2, 0.3, 0.75, nil)
	add("robust", "label-noise", 0.4, 0.5, 0.70, nil)
	add("fragile", "label-noise", 0.2, 0.3, 0.55, nil)
	add("fragile", "label-noise", 0.4, 0.5, 0.25, nil)
	// Completeness curves (roles reversed).
	add("robust", "completeness", 0.2, 0.2, 0.55, nil)
	add("robust", "completeness", 0.4, 0.4, 0.35, nil)
	add("fragile", "completeness", 0.2, 0.2, 0.80, nil)
	add("fragile", "completeness", 0.4, 0.4, 0.75, nil)
	return k
}

func TestAlgorithms(t *testing.T) {
	k := seedKB().Snapshot()
	algs := k.Algorithms()
	if len(algs) != 2 || algs[0] != "fragile" || algs[1] != "robust" {
		t.Fatalf("algorithms = %v", algs)
	}
}

func TestBaselineKappa(t *testing.T) {
	k := seedKB().Snapshot()
	if got := k.BaselineKappa("robust"); got != 0.8 {
		t.Fatalf("baseline = %v", got)
	}
	if got := k.BaselineKappa("missing-alg"); got != 0 {
		t.Fatalf("missing baseline = %v", got)
	}
}

func TestCurveInjectedAxis(t *testing.T) {
	k := seedKB().Snapshot()
	c := k.Curve("fragile", dq.LabelNoise)
	if len(c) != 3 {
		t.Fatalf("curve points = %d, want 3", len(c))
	}
	if c[0].Severity != 0 || c[1].Severity != 0.2 || c[2].Severity != 0.4 {
		t.Fatalf("severities = %+v", c)
	}
	if c[0].Kappa != 0.85 || c[2].Kappa != 0.25 {
		t.Fatalf("kappas = %+v", c)
	}
}

func TestMeasuredCurveUsesMeasuredAxis(t *testing.T) {
	k := seedKB().Snapshot()
	c := k.MeasuredCurve("fragile", dq.LabelNoise)
	if c[0].Severity != 0.1 {
		t.Fatalf("clean anchor = %v, want measured 0.1", c[0].Severity)
	}
	if c[1].Severity != 0.3 || c[2].Severity != 0.5 {
		t.Fatalf("measured severities = %+v", c)
	}
}

func TestSensitivitySigns(t *testing.T) {
	k := seedKB().Snapshot()
	if s := k.Sensitivity("fragile", dq.LabelNoise); s <= 0 {
		t.Fatalf("fragile noise sensitivity = %v, want positive", s)
	}
	if sr, sf := k.Sensitivity("robust", dq.LabelNoise), k.Sensitivity("fragile", dq.LabelNoise); sr >= sf {
		t.Fatalf("robust (%v) should be less noise-sensitive than fragile (%v)", sr, sf)
	}
	if s := k.Sensitivity("robust", dq.Duplicates); s != 0 {
		t.Fatalf("no-data sensitivity = %v, want 0", s)
	}
}

func TestPredictKappaCleanEqualsBaseline(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.1 // the measured floor of clean data
	got := k.PredictKappa("fragile", sev)
	if math.Abs(got-0.85) > 1e-9 {
		t.Fatalf("clean prediction = %v, want baseline 0.85", got)
	}
}

func TestPredictKappaInterpolates(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.4 // midway between measured 0.3 and 0.5
	got := k.PredictKappa("fragile", sev)
	want := 0.85 - (0.85 - (0.55+0.25)/2) // interpolated kappa 0.40
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("interpolated prediction = %v, want %v", got, want)
	}
}

func TestPredictKappaAdditiveAcrossCriteria(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.3
	sev[dq.Completeness] = 0.2
	got := k.PredictKappa("fragile", sev)
	want := 0.85 - (0.85 - 0.55) - (0.85 - 0.80)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("additive prediction = %v, want %v", got, want)
	}
}

func TestPredictKappaExtrapolatesBeyondCurve(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.9
	got := k.PredictKappa("fragile", sev)
	if got >= 0.25 {
		t.Fatalf("extrapolated prediction = %v, want below last curve point", got)
	}
	if got < -1 {
		t.Fatalf("prediction below kappa floor: %v", got)
	}
}

func TestAdviseRanksByScenario(t *testing.T) {
	k := seedKB().Snapshot()
	// Scenario A: heavy label noise -> robust wins despite lower baseline.
	sevA := make([]float64, len(dq.AllCriteria()))
	sevA[dq.LabelNoise] = 0.5
	advA, err := k.AdviseSeverities(sevA)
	if err != nil {
		t.Fatal(err)
	}
	if advA.Best().Algorithm != "robust" {
		t.Fatalf("noise scenario best = %s, want robust", advA.Best().Algorithm)
	}
	// Scenario B: heavy missingness -> fragile wins.
	sevB := make([]float64, len(dq.AllCriteria()))
	sevB[dq.Completeness] = 0.4
	sevB[dq.LabelNoise] = 0.1 // clean floor
	advB, err := k.AdviseSeverities(sevB)
	if err != nil {
		t.Fatal(err)
	}
	if advB.Best().Algorithm != "fragile" {
		t.Fatalf("missing scenario best = %s, want fragile", advB.Best().Algorithm)
	}
}

func TestAdviseDominantAndPenalties(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.5
	sev[dq.Completeness] = 0.2
	adv, err := k.AdviseSeverities(sev)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Dominant) < 2 || adv.Dominant[0] != "label-noise" {
		t.Fatalf("dominant = %v", adv.Dominant)
	}
	best := adv.Best()
	if len(best.Penalties) == 0 {
		t.Fatal("penalties missing")
	}
	if _, ok := best.Penalties["label-noise"]; !ok {
		t.Fatalf("label-noise penalty missing: %v", best.Penalties)
	}
}

func TestAdviseEmptyKB(t *testing.T) {
	if _, err := New().Snapshot().AdviseSeverities(make([]float64, 7)); err == nil {
		t.Fatal("empty KB should error")
	}
}

func TestAdviseWarnsOnHopelessSource(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 1
	sev[dq.Completeness] = 1
	adv, err := k.AdviseSeverities(sev)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Warnings) == 0 {
		t.Fatal("expected a repair-first warning")
	}
}

func TestExplainMentionsBest(t *testing.T) {
	k := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.5
	adv, _ := k.AdviseSeverities(sev)
	text := adv.Explain()
	if !bytes.Contains([]byte(text), []byte("ROBUST")) {
		t.Fatalf("explanation does not announce the best option:\n%s", text)
	}
	if !bytes.Contains([]byte(text), []byte("Full ranking")) {
		t.Fatalf("explanation lacks the ranking:\n%s", text)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	k := seedKB()
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != k.Len() {
		t.Fatalf("roundtrip records = %d, want %d", back.Len(), k.Len())
	}
	// Advice identical after roundtrip.
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.5
	a, _ := k.Snapshot().AdviseSeverities(sev)
	b, _ := back.Snapshot().AdviseSeverities(sev)
	if a.Best().Algorithm != b.Best().Algorithm ||
		math.Abs(a.Best().PredictedKappa-b.Best().PredictedKappa) > 1e-12 {
		t.Fatal("advice changed across persistence")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage should error")
	}
}

func TestSensitivityTableShape(t *testing.T) {
	k := seedKB().Snapshot()
	algs, crits, cells := k.SensitivityTable()
	if len(algs) != 2 || len(crits) != len(dq.AllCriteria()) {
		t.Fatalf("table shape %dx%d", len(algs), len(crits))
	}
	if len(cells) != 2 || len(cells[0]) != len(crits) {
		t.Fatal("cells shape wrong")
	}
	// No-data cells are NaN; measured cells are finite.
	if !math.IsNaN(cells[0][int(dq.Duplicates)]) {
		t.Fatal("no-data cell should be NaN")
	}
	if math.IsNaN(cells[0][int(dq.LabelNoise)]) {
		t.Fatal("measured cell should be finite")
	}
}

func TestMixedRecordsExcludedFromCurves(t *testing.T) {
	k := seedKB()
	k.Add(Record{
		Algorithm: "fragile", Criterion: "label-noise+completeness",
		Severity: 0.3, Mixed: true, Dataset: "unit",
		Metrics: eval.Metrics{Kappa: -0.5},
	})
	c := k.Snapshot().Curve("fragile", dq.LabelNoise)
	for _, p := range c {
		if p.Kappa == -0.5 {
			t.Fatal("mixed record leaked into a simple curve")
		}
	}
}
