package experiment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/synth"
)

// smallCfg keeps unit-test runs fast: 2 algorithms, 2 criteria, 3 severities.
func smallCfg(seed int64) Config {
	return Config{
		Algorithms: map[string]mining.Factory{
			"naive-bayes": func() mining.Classifier { return mining.NewNaiveBayes() },
			"c45":         func() mining.Classifier { return mining.NewC45Tree() },
		},
		Criteria:   []dq.Criterion{dq.LabelNoise, dq.Completeness},
		Severities: []float64{0, 0.2, 0.4},
		Folds:      3,
		Seed:       seed,
	}
}

func fixture() *mining.Dataset {
	return synth.MustMakeClassification(synth.ClassificationSpec{Rows: 240, Seed: 21})
}

func TestPhase1GridSize(t *testing.T) {
	recs, err := Phase1(context.Background(), smallCfg(1), fixture(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms × (1 clean + 2 criteria × 2 non-zero severities) = 10.
	if len(recs) != 10 {
		t.Fatalf("records = %d, want 10", len(recs))
	}
	cleans, corrupted := 0, 0
	for _, r := range recs {
		if r.Criterion == "clean" {
			cleans++
			if r.Severity != 0 || len(r.MeasuredAll) == 0 {
				t.Fatalf("clean record malformed: %+v", r)
			}
		} else {
			corrupted++
			if r.Severity == 0 {
				t.Fatalf("corrupted record without severity: %+v", r)
			}
		}
		if r.Dataset != "unit" || r.Folds != 3 {
			t.Fatalf("metadata wrong: %+v", r)
		}
	}
	if cleans != 2 || corrupted != 8 {
		t.Fatalf("cleans=%d corrupted=%d", cleans, corrupted)
	}
}

func TestPhase1MeasuredSeverityRecorded(t *testing.T) {
	recs, err := Phase1(context.Background(), smallCfg(2), fixture(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Criterion == dq.LabelNoise.String() && r.Severity >= 0.2 {
			if r.MeasuredSeverity <= 0 {
				t.Fatalf("measured severity missing: %+v", r)
			}
		}
		if r.Criterion == dq.Completeness.String() {
			// Measured missing rate tracks the injected rate.
			if d := r.MeasuredSeverity - r.Severity; d > 0.1 || d < -0.1 {
				t.Fatalf("completeness measured %v vs injected %v", r.MeasuredSeverity, r.Severity)
			}
		}
	}
}

func TestPhase1DeterministicAcrossWorkers(t *testing.T) {
	cfg1 := smallCfg(3)
	cfg1.Workers = 1
	cfg8 := smallCfg(3)
	cfg8.Workers = 8
	a, err := Phase1(context.Background(), cfg1, fixture(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Phase1(context.Background(), cfg8, fixture(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("record counts differ")
	}
	for i := range a {
		if a[i].Algorithm != b[i].Algorithm || a[i].Criterion != b[i].Criterion ||
			a[i].Metrics != b[i].Metrics {
			t.Fatalf("parallelism changed results at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestPhase2DeterministicAcrossWorkers: Phase-2 pairs are cells shared by
// every algorithm, built by whichever worker reaches them first; neither
// the mixed results nor the records may depend on which one that was.
func TestPhase2DeterministicAcrossWorkers(t *testing.T) {
	ds := fixture()
	p1, err := Phase1(context.Background(), smallCfg(7), ds, "unit")
	if err != nil {
		t.Fatal(err)
	}
	snap := (&kb.KnowledgeBase{Records: p1}).Snapshot()
	combos := DefaultCombos([]dq.Criterion{dq.LabelNoise, dq.Completeness, dq.Imbalance})
	run := func(workers int) ([]MixedResult, []kb.Record) {
		cfg := smallCfg(7)
		cfg.Workers = workers
		mixed, recs, err := Phase2(context.Background(), cfg, ds, "unit", snap, combos, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return mixed, recs
	}
	m1, r1 := run(1)
	m4, r4 := run(4)
	if len(r1) != 2*len(combos) {
		t.Fatalf("records = %d, want %d", len(r1), 2*len(combos))
	}
	if !reflect.DeepEqual(m1, m4) {
		t.Fatalf("parallelism changed mixed results:\n%+v\n%+v", m1, m4)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("parallelism changed records:\n%+v\n%+v", r1, r4)
	}
}

// TestCellErrorReachesEveryTask: a cell whose injection fails is built
// once, every task that needs it returns that one error, and the phase
// returns no records.
func TestCellErrorReachesEveryTask(t *testing.T) {
	ds := fixture()
	bad := dq.Criterion(99) // inject.Apply rejects it as unsupported
	cfg := smallCfg(8)
	cfg.Workers = 4
	cfg.Criteria = []dq.Criterion{dq.LabelNoise, bad}
	cfg.applyDefaults()

	recs, err := Phase1(context.Background(), cfg, ds, "unit")
	if err == nil || recs != nil {
		t.Fatalf("Phase1 = %d records, err %v; want no records and an error", len(recs), err)
	}
	coords := cellCoords(cfg)
	cells := phase1Cells(cfg, ds, coords)
	cellErr := map[int]error{} // the first error each failed cell returned
	failed := 0
	for _, tk := range p1Tasks(cfg, len(coords)) {
		_, err := runP1Task(cfg, coords, cells, "unit", tk, nil)
		if coords[tk.cell].criterion != bad || coords[tk.cell].severity == 0 {
			if err != nil {
				t.Fatalf("task on a good cell failed: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("task %+v on the failed cell returned no error", tk)
		}
		if first, ok := cellErr[tk.cell]; ok && err != first {
			t.Fatalf("the failed cell's tasks returned different errors: %v vs %v", first, err)
		}
		cellErr[tk.cell] = err
		failed++
	}
	if want := 2 * 2; failed != want || len(cellErr) != 2 { // 2 algorithms × 2 non-zero severities
		t.Fatalf("%d tasks on %d failed cells, want %d on 2", failed, len(cellErr), want)
	}
	if !strings.Contains(err.Error(), "unsupported criterion") {
		t.Fatalf("Phase1 error %q does not name the injection failure", err)
	}

	combos := [][]dq.Criterion{{dq.LabelNoise, dq.Completeness}, {dq.LabelNoise, bad}}
	mixed, p2, err := Phase2(context.Background(), cfg, ds, "unit", nil, combos, 0.3)
	if err == nil || mixed != nil || p2 != nil {
		t.Fatalf("Phase2 = %d results, %d records, err %v; want none and an error", len(mixed), len(p2), err)
	}
	cells2 := phase2Cells(cfg, ds, combos, 0.3, false)
	var first error
	for _, tk := range p2Tasks(cfg, combos) {
		_, _, err := runP2Task(cfg, cells2, "unit", nil, 0.3, tk, nil)
		if tk.cell == 0 {
			if err != nil {
				t.Fatalf("task on the good pair failed: %v", err)
			}
			continue
		}
		if err == nil || (first != nil && err != first) {
			t.Fatalf("task %+v on the failed pair returned %v, want the cell's error %v", tk, err, first)
		}
		first = err
	}
}

func TestPhase1DegradationShape(t *testing.T) {
	recs, err := Phase1(context.Background(), smallCfg(4), fixture(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	base := kb.New()
	for _, r := range recs {
		base.Add(r)
	}
	snap := base.Snapshot()
	// Label noise at 0.4 must hurt every algorithm vs its clean baseline.
	for _, alg := range []string{"naive-bayes", "c45"} {
		curve := snap.Curve(alg, dq.LabelNoise)
		if len(curve) != 3 {
			t.Fatalf("curve points = %d", len(curve))
		}
		if curve[2].Kappa >= curve[0].Kappa-0.1 {
			t.Fatalf("%s kappa did not degrade under 40%% label noise: %+v", alg, curve)
		}
	}
}

func TestPhase2InteractionAndRecords(t *testing.T) {
	ds := fixture()
	cfg := smallCfg(5)
	p1, err := Phase1(context.Background(), cfg, ds, "unit")
	if err != nil {
		t.Fatal(err)
	}
	base := kb.New()
	for _, r := range p1 {
		base.Add(r)
	}
	combos := [][]dq.Criterion{{dq.LabelNoise, dq.Completeness}}
	snap := base.Snapshot()
	mixed, recs, err := Phase2(context.Background(), cfg, ds, "unit", snap, combos, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 2 || len(recs) != 2 { // one per algorithm
		t.Fatalf("mixed=%d recs=%d, want 2/2", len(mixed), len(recs))
	}
	for _, m := range mixed {
		if m.Actual.Kappa > snap.BaselineKappa(m.Algorithm) {
			t.Fatalf("mixed corruption did not hurt %s", m.Algorithm)
		}
		if m.PredictedKappa == 0 {
			t.Fatalf("prediction missing for %s", m.Algorithm)
		}
	}
	for _, r := range recs {
		if !r.Mixed || r.Criterion != "label-noise+completeness" {
			t.Fatalf("mixed record malformed: %+v", r)
		}
	}
}

func TestDefaultCombos(t *testing.T) {
	combos := DefaultCombos([]dq.Criterion{dq.Completeness, dq.LabelNoise, dq.Imbalance})
	if len(combos) != 3 {
		t.Fatalf("pairs = %d, want 3", len(combos))
	}
	for _, c := range combos {
		if len(c) != 2 || c[0] == c[1] {
			t.Fatalf("bad combo %v", c)
		}
	}
}

func TestTaskSeedStable(t *testing.T) {
	a := taskSeed(1, "x", "y")
	b := taskSeed(1, "x", "y")
	c := taskSeed(1, "x", "z")
	d := taskSeed(2, "x", "y")
	if a != b {
		t.Fatal("same coordinates, different seed")
	}
	if a == c || a == d {
		t.Fatal("different coordinates, same seed")
	}
	if a < 0 {
		t.Fatal("seed must be non-negative")
	}
}

func TestValidateAdvisorBeatsChanceAndRuns(t *testing.T) {
	ds := fixture()
	cfg := smallCfg(6)
	cfg.Mechanism = inject.MCAR
	p1, err := Phase1(context.Background(), cfg, ds, "unit")
	if err != nil {
		t.Fatal(err)
	}
	base := kb.New()
	for _, r := range p1 {
		base.Add(r)
	}
	res, err := Validate(context.Background(), cfg, ds, base.Snapshot(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4 || len(res.Detail) != 4 {
		t.Fatalf("trials = %d detail = %d", res.Trials, len(res.Detail))
	}
	if res.Top2Rate() < res.Top1Rate() {
		t.Fatal("top2 rate cannot be below top1")
	}
	if res.MeanRegret < 0 {
		t.Fatalf("negative regret %v", res.MeanRegret)
	}
	if res.StaticPolicy == "" {
		t.Fatal("static policy missing")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.applyDefaults()
	if cfg.Folds != 5 || cfg.Workers < 1 || len(cfg.Criteria) != len(dq.AllCriteria()) {
		t.Fatalf("defaults: %+v", cfg)
	}
	if len(cfg.Severities) == 0 || cfg.Severities[0] != 0 {
		t.Fatalf("default severities: %v", cfg.Severities)
	}
	if len(cfg.AlgorithmNames()) != 8 {
		t.Fatalf("default suite size: %v", cfg.AlgorithmNames())
	}
}

// TestPhase1CancellationStopsMidGrid cancels the context from the progress
// sink after the first completed record: Phase1 must stop between grid
// cells, return ctx.Err(), and leave most of the grid unrun.
func TestPhase1CancellationStopsMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	cfg := smallCfg(7)
	cfg.Workers = 1 // serialize so "stops mid-grid" is deterministic
	cfg.Progress = func(ev Event) {
		completed.Store(int64(ev.Completed))
		cancel()
	}
	recs, err := Phase1(ctx, cfg, fixture(), "unit")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if recs != nil {
		t.Fatal("canceled run must not return records")
	}
	// 10 tasks total (2 algorithms x 5 cells); cancellation after the first
	// completion must prevent the grid from finishing.
	if n := completed.Load(); n == 0 || n >= 10 {
		t.Fatalf("completed %d records, want mid-grid stop", n)
	}
}

// TestPhase1PreCanceledContext: a context canceled before the call stops
// even cell preparation.
func TestPhase1PreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Phase1(ctx, smallCfg(8), fixture(), "unit"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPhase2CancellationReturnsCtxErr mirrors the Phase-1 test for the
// mixed-criteria grid.
func TestPhase2CancellationReturnsCtxErr(t *testing.T) {
	ds := fixture()
	cfg := smallCfg(9)
	p1, err := Phase1(context.Background(), cfg, ds, "unit")
	if err != nil {
		t.Fatal(err)
	}
	base := kb.New()
	for _, r := range p1 {
		base.Add(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Workers = 1
	cfg.Progress = func(Event) { cancel() }
	combos := [][]dq.Criterion{{dq.LabelNoise, dq.Completeness}, {dq.LabelNoise, dq.Imbalance}}
	_, _, err = Phase2(ctx, cfg, ds, "unit", base.Snapshot(), combos, 0.3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressEventsCoverTheGrid: every record completion emits exactly one
// event, serially, with a monotonically increasing Completed counter.
func TestProgressEventsCoverTheGrid(t *testing.T) {
	var events []Event
	cfg := smallCfg(10)
	cfg.Workers = 4
	cfg.Progress = func(ev Event) { events = append(events, ev) } // serial by contract
	recs, err := Phase1(context.Background(), cfg, fixture(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(recs) {
		t.Fatalf("%d events for %d records", len(events), len(recs))
	}
	for i, ev := range events {
		if ev.Phase != 1 || ev.Total != len(recs) || ev.Completed != i+1 {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
		if ev.Algorithm == "" || ev.Criterion == "" {
			t.Fatalf("event %d lacks coordinates: %+v", i, ev)
		}
	}
}

// TestValidateCancellation: Validate honours ctx between trials.
func TestValidateCancellation(t *testing.T) {
	ds := fixture()
	cfg := smallCfg(11)
	p1, err := Phase1(context.Background(), cfg, ds, "unit")
	if err != nil {
		t.Fatal(err)
	}
	base := kb.New()
	for _, r := range p1 {
		base.Add(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Validate(ctx, cfg, ds, base.Snapshot(), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunGridStopsAfterAFailure: once a task fails no new task starts, yet
// the error returned is still the first in task order — task 10's, though
// task 10 waits until task 11 has failed.
func TestRunGridStopsAfterAFailure(t *testing.T) {
	const n, workers = 100, 2
	var ran atomic.Int64
	eleven := make(chan struct{})
	err := runGrid(context.Background(), workers, n, func(i, _ int) error {
		ran.Add(1)
		switch i {
		case 10:
			<-eleven
			return errors.New("task 10")
		case 11:
			close(eleven)
			return errors.New("task 11")
		}
		return nil
	})
	if err == nil || err.Error() != "task 10" {
		t.Fatalf("runGrid = %v, want task 10's error", err)
	}
	// Tasks 0-11 run; after the first failure at most one task more per
	// worker, plus one the dispatcher may already be handing out.
	if got := ran.Load(); got < 12 || got > 12+workers+1 {
		t.Fatalf("%d tasks ran, want 12 to %d", got, 12+workers+1)
	}
}
