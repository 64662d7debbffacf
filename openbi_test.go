package openbi

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole paper pipeline through the public
// facade only: experiments → KB → dirty source → profile → advisor session
// → advice → advised mining → LOD sharing.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng, err := New(WithSeed(42), WithFolds(3))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := MakeClassification(ClassificationSpec{Rows: 240, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var events int
	rep, err := eng.RunExperiments(ctx, ref, "reference",
		WithProgress(func(Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1Records == 0 || rep.Phase2Records == 0 {
		t.Fatalf("experiment report: %+v", rep)
	}
	if events != rep.Phase1Records+rep.Phase2Records {
		t.Fatalf("progress events %d != %d records", events, rep.Phase1Records+rep.Phase2Records)
	}

	dirty, err := Corrupt(ref.T, "class", []InjectSpec{
		{Criterion: LabelNoise, Severity: 0.3},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}

	advisor, err := eng.Advisor()
	if err != nil {
		t.Fatal(err)
	}
	advice, model, err := advisor.Advise(ctx, dirty, "class")
	if err != nil {
		t.Fatal(err)
	}
	if model.Profile.Severity(LabelNoise) < 0.2 {
		t.Fatalf("noise severity = %v", model.Profile.Severity(LabelNoise))
	}
	if len(advice.Ranked) != 8 {
		t.Fatalf("ranking size = %d", len(advice.Ranked))
	}
	if !strings.Contains(advice.Explain(), "The best option is") {
		t.Fatal("explanation missing the paper's phrase")
	}

	result, err := advisor.MineWithAdvice(ctx, dirty, "class", "http://t.example/")
	if err != nil {
		t.Fatal(err)
	}
	if result.Shared.Len() == 0 {
		t.Fatal("no LOD shared")
	}
	if result.Model == nil || result.Advice.Best().Algorithm != result.Algorithm {
		t.Fatal("mining result lacks the threaded model/advice")
	}
}

// TestPublicTypedErrors asserts the exported sentinels match failures
// produced by the facade entry points.
func TestPublicTypedErrors(t *testing.T) {
	if _, err := New(WithFolds(0)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("WithFolds(0) err = %v, want ErrBadConfig", err)
	}
	if _, err := New(WithAlgorithms("weka")); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("WithAlgorithms err = %v, want ErrUnknownAlgorithm", err)
	}

	eng, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := MakeClassification(ClassificationSpec{Rows: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advisor(); !errors.Is(err, ErrEmptyKB) {
		t.Fatalf("empty-KB advisor err = %v, want ErrEmptyKB", err)
	}
	_, err = Corrupt(ds.T, "ghost", []InjectSpec{{Criterion: LabelNoise, Severity: 0.2}}, 1)
	if !errors.Is(err, ErrColumnNotFound) {
		t.Fatalf("corrupt err = %v, want ErrColumnNotFound", err)
	}
	var cnf *ColumnNotFoundError
	if !errors.As(err, &cnf) || cnf.Column != "ghost" {
		t.Fatalf("structured detail lost: %v", err)
	}
}

// TestPublicConcurrentServing is the redesign's acceptance scenario: many
// goroutines calling Advise and MineWithAdvice against one populated
// snapshot, under -race.
func TestPublicConcurrentServing(t *testing.T) {
	ctx := context.Background()
	eng, err := New(WithSeed(3), WithFolds(2),
		WithAlgorithms("naive-bayes", "c45"),
		WithCombos([][]Criterion{{Completeness, LabelNoise}}))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MakeClassification(ClassificationSpec{Rows: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunExperiments(ctx, ref, "reference"); err != nil {
		t.Fatal(err)
	}
	dirty, err := Corrupt(ref.T, "class", []InjectSpec{
		{Criterion: Completeness, Severity: 0.2},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}

	advisor, err := eng.Advisor()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := advisor.Advise(ctx, dirty, "class")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				advice, _, err := advisor.Advise(ctx, dirty, "class")
				if err != nil || advice.Best().Algorithm != want.Best().Algorithm {
					t.Errorf("goroutine %d: advice diverged: %v", g, err)
					return
				}
			}
			if g%3 == 0 {
				res, err := advisor.MineWithAdvice(ctx, dirty, "class", "http://t.example/")
				if err != nil || res.Shared.Len() == 0 {
					t.Errorf("goroutine %d: mine: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPublicLODPath(t *testing.T) {
	g, err := MunicipalBudgetLOD(LODSpec{Entities: 120, Seed: 1, Dirtiness: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ProjectLargestClass(g)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name != "Municipality" {
		t.Fatalf("largest class = %q", tb.Name)
	}
	p := MeasureQuality(tb, "fundingLevel")
	if p.Completeness >= 1 {
		t.Fatal("dirty LOD should show incompleteness")
	}
}

func TestPublicSuiteAndCriteria(t *testing.T) {
	if len(SuiteNames()) != 8 {
		t.Fatalf("suite = %v", SuiteNames())
	}
	if len(AllCriteria()) != 7 {
		t.Fatalf("criteria = %v", AllCriteria())
	}
	if Completeness.String() != "completeness" || Dimensionality.String() != "dimensionality" {
		t.Fatal("criterion constants wrong")
	}
}

func TestPublicGenerators(t *testing.T) {
	for name, gen := range map[string]func(LODSpec) (*Graph, error){
		"municipal": MunicipalBudgetLOD,
		"air":       AirQualityLOD,
		"education": EducationLOD,
	} {
		g, err := gen(LODSpec{Entities: 30, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Len() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
}

// TestPublicScaleOut drives the sharded KB construction path through the
// public facade: shard the grid, merge the outputs (round-tripped through
// the shard file format), install the result with ReplaceKB, and assert it
// matches a monolithic checkpointed run byte for byte.
func TestPublicScaleOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment grid twice")
	}
	ctx := context.Background()
	opts := []Option{WithSeed(42), WithFolds(3), WithAlgorithms("zero-r", "naive-bayes")}
	ref, err := MakeClassification(ClassificationSpec{Rows: 80, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	mono, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mono.RunExperiments(ctx, ref, "reference", WithCheckpoint(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := mono.SaveKB(&want); err != nil {
		t.Fatal(err)
	}

	eng, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseShardPlan("0/2")
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, 0, plan.Count)
	for i := 0; i < plan.Count; i++ {
		sh, err := eng.RunExperimentShard(ctx, ref, "reference", ShardPlan{Index: i, Count: plan.Count})
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through the wire format the CLI and server consume.
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, loaded)
	}
	merged, err := MergeKB(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ReplaceKB(merged); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := eng.SaveKB(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("facade shard+merge KB differs from monolithic run")
	}

	// Multi-corpus: registered corpora run as one atomic publication.
	multi, err := New(append(opts, WithCorpus("a", ref))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.RunCorpora(ctx); err != nil {
		t.Fatal(err)
	}
	if multi.KB().Len() == 0 {
		t.Fatal("RunCorpora left an empty KB")
	}
}
