package kb

import (
	"errors"
	"math"
	"sync"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/oberr"
)

// TestSnapshotMatchesBuilderReads pins the builder/snapshot split: every
// precomputed read must equal the on-the-fly computation (curveOf,
// baselineOf, slopeOf, lossAt) over the builder's records, bit for bit.
func TestSnapshotMatchesBuilderReads(t *testing.T) {
	k := seedKB()
	s := k.Snapshot()
	if s.Len() != k.Len() {
		t.Fatalf("snapshot size %d != %d", s.Len(), k.Len())
	}
	algs := []string{"fragile", "robust"}
	if got := s.Algorithms(); len(got) != len(algs) || got[0] != algs[0] || got[1] != algs[1] {
		t.Fatalf("algorithms %v != %v", got, algs)
	}
	for _, alg := range algs {
		if s.BaselineKappa(alg) != baselineOf(k.Records, alg) {
			t.Fatalf("%s baseline differs", alg)
		}
		for _, crit := range dq.AllCriteria() {
			for name, pair := range map[string][2][]CurvePoint{
				"injected": {s.Curve(alg, crit), curveOf(k.Records, alg, crit, false)},
				"measured": {s.MeasuredCurve(alg, crit), curveOf(k.Records, alg, crit, true)},
			} {
				snap, ref := pair[0], pair[1]
				if len(snap) != len(ref) {
					t.Fatalf("%s/%s %s curve length %d != %d", alg, crit, name, len(snap), len(ref))
				}
				for i := range snap {
					if snap[i] != ref[i] {
						t.Fatalf("%s/%s %s curve point %d: %+v != %+v", alg, crit, name, i, snap[i], ref[i])
					}
				}
			}
			if want := -slopeOf(curveOf(k.Records, alg, crit, false)); s.Sensitivity(alg, crit) != want {
				t.Fatalf("%s/%s sensitivity %v != %v", alg, crit, s.Sensitivity(alg, crit), want)
			}
		}
	}
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.4
	sev[dq.Completeness] = 0.2
	// predict is PredictKappa's additive model recomputed from the records.
	predict := func(alg string) float64 {
		pred := baselineOf(k.Records, alg)
		for _, c := range dq.AllCriteria() {
			if sev[c] > 0 {
				pred -= lossAt(curveOf(k.Records, alg, c, true), sev[c])
			}
		}
		return math.Max(pred, -1)
	}
	bestAlg, bestKappa := "", math.Inf(-1)
	for _, alg := range algs {
		want := predict(alg)
		if got := s.PredictKappa(alg, sev); got != want {
			t.Fatalf("%s prediction %v != %v", alg, got, want)
		}
		if want > bestKappa {
			bestAlg, bestKappa = alg, want
		}
	}
	sa, err := s.AdviseSeverities(sev)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Best().Algorithm != bestAlg || sa.Best().PredictedKappa != bestKappa {
		t.Fatalf("advice best %+v, want %s at %v", sa.Best(), bestAlg, bestKappa)
	}
}

// TestSnapshotDetachedFromBuilder: records added after Snapshot() must not
// leak into it — that isolation is what makes lock-free serving sound.
func TestSnapshotDetachedFromBuilder(t *testing.T) {
	k := seedKB()
	s := k.Snapshot()
	before := s.BaselineKappa("robust")
	k.Add(Record{Algorithm: "robust", Criterion: "clean", Severity: 0,
		Dataset: "late", Metrics: eval.Metrics{Kappa: -1}})
	k.Add(Record{Algorithm: "newcomer", Criterion: "clean", Severity: 0,
		Dataset: "late", Metrics: eval.Metrics{Kappa: 0.9}})
	if s.BaselineKappa("robust") != before {
		t.Fatal("later Add mutated a snapshot baseline")
	}
	if len(s.Algorithms()) != 2 || s.Len() != 10 {
		t.Fatalf("later Add changed snapshot shape: %v, %d records", s.Algorithms(), s.Len())
	}
}

func TestSnapshotEmptyKBTypedError(t *testing.T) {
	_, err := New().Snapshot().AdviseSeverities(make([]float64, 7))
	if !errors.Is(err, oberr.ErrEmptyKB) {
		t.Fatalf("err = %v, want ErrEmptyKB", err)
	}
}

// TestSnapshotConcurrentReads hammers one snapshot from many goroutines;
// run under -race this asserts the read side is genuinely lock-free safe.
func TestSnapshotConcurrentReads(t *testing.T) {
	s := seedKB().Snapshot()
	sev := make([]float64, len(dq.AllCriteria()))
	sev[dq.LabelNoise] = 0.5
	want, err := s.AdviseSeverities(sev)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				adv, err := s.AdviseSeverities(sev)
				if err != nil || adv.Best().Algorithm != want.Best().Algorithm {
					t.Errorf("concurrent advice diverged: %v %v", adv.Best(), err)
					return
				}
				s.SensitivityTable()
				if math.IsNaN(s.PredictKappa("robust", sev)) {
					t.Error("NaN prediction")
					return
				}
			}
		}()
	}
	wg.Wait()
}
