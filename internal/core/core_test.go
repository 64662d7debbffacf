package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/experiment"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/oberr"
	"openbi/internal/rdf"
	"openbi/internal/synth"
)

// writeTemp drops content into a temp file with the given name and returns
// its path.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newEngine builds an engine for tests, failing the test on bad options.
func newEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestIngestFileCSV(t *testing.T) {
	path := writeTemp(t, "data.csv", "a,b\n1,x\n2,y\n")
	tb, err := IngestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.Name != "data" {
		t.Fatalf("csv ingest: %d rows name %q", tb.NumRows(), tb.Name)
	}
}

func TestIngestFileXMLAndHTML(t *testing.T) {
	xml := writeTemp(t, "d.xml", "<r><e><v>1</v></e><e><v>2</v></e></r>")
	if tb, err := IngestFile(xml); err != nil || tb.NumRows() != 2 {
		t.Fatalf("xml ingest: %v", err)
	}
	html := writeTemp(t, "d.html", "<table><tr><th>v</th></tr><tr><td>1</td></tr></table>")
	if tb, err := IngestFile(html); err != nil || tb.NumRows() != 1 {
		t.Fatalf("html ingest: %v", err)
	}
}

func TestIngestFileNTriplesProjectsLargestClass(t *testing.T) {
	nt := `<http://x/a1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Big> .
<http://x/a2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Big> .
<http://x/b1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Small> .
<http://x/a1> <http://x/v> "1" .
<http://x/a2> <http://x/v> "2" .
<http://x/b1> <http://x/v> "9" .
`
	path := writeTemp(t, "d.nt", nt)
	tb, err := IngestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name != "Big" || tb.NumRows() != 2 {
		t.Fatalf("projected %q with %d rows, want Big/2", tb.Name, tb.NumRows())
	}
}

// TestIngestFileBadRDFSyntax: malformed N-Triples and Turtle files both
// fail with the oberr taxonomy and the offending line.
func TestIngestFileBadRDFSyntax(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		line      int
	}{
		{"bad.nt", "<http://a> <http://p> \"1\" .\n<http://a> <http://p> .\n", 2},
		{"bad.ttl", "@prefix ex: <http://x/> .\n\nex:a ex:p ^ .\n", 3},
		{"undeclared.ttl", "<http://a> <http://p> 1 .\nfoo:a <http://p> 2 .\n", 2},
	} {
		_, err := IngestFile(writeTemp(t, c.name, c.doc))
		var se *oberr.SyntaxError
		if !errors.Is(err, oberr.ErrBadSyntax) || !errors.As(err, &se) || se.Line != c.line {
			t.Fatalf("%s: want SyntaxError on line %d, got %v", c.name, c.line, err)
		}
	}
}

func TestIngestFileUnsupported(t *testing.T) {
	path := writeTemp(t, "d.parquet", "xx")
	_, err := IngestFile(path)
	if !errors.Is(err, oberr.ErrUnsupportedFormat) {
		t.Fatalf("err = %v, want ErrUnsupportedFormat", err)
	}
	var ufe *oberr.UnsupportedFormatError
	if !errors.As(err, &ufe) || ufe.Format != ".parquet" {
		t.Fatalf("detail lost: %v", err)
	}
	if _, err := IngestFile(filepath.Join(t.TempDir(), "absent.csv")); err == nil {
		t.Fatal("absent file should error")
	}
}

func TestBuildModelAnnotates(t *testing.T) {
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 120, Seed: 2})
	m, err := BuildModel(ds.T, "class")
	if err != nil {
		t.Fatal(err)
	}
	def := m.Catalog.Table(ds.Table().Name)
	if def == nil {
		t.Fatal("catalog missing table def")
	}
	if _, ok := def.AnnotationValue(dq.AnnCompleteness); !ok {
		t.Fatal("model not annotated")
	}
	sev := dq.SeveritiesFromModel(def)
	for _, c := range dq.AllCriteria() {
		if sev[c] != m.Profile.Severity(c) {
			t.Fatalf("model severity mismatch for %v", c)
		}
	}
}

func TestBuildModelUnknownClass(t *testing.T) {
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 50, Seed: 3})
	_, err := BuildModel(ds.T, "ghost")
	if !errors.Is(err, oberr.ErrColumnNotFound) {
		t.Fatalf("err = %v, want ErrColumnNotFound", err)
	}
	var cnf *oberr.ColumnNotFoundError
	if !errors.As(err, &cnf) || cnf.Column != "ghost" {
		t.Fatalf("detail lost: %v", err)
	}
}

func TestCorruptForDemoUnknownClass(t *testing.T) {
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 50, Seed: 3})
	// A misspelled class column must fail loudly instead of silently
	// injecting without class protection.
	_, err := CorruptForDemo(ds.T, "ghost",
		[]inject.Spec{{Criterion: dq.LabelNoise, Severity: 0.2}}, 1)
	if !errors.Is(err, oberr.ErrColumnNotFound) {
		t.Fatalf("err = %v, want ErrColumnNotFound", err)
	}
	// Empty classColumn still means "no class" and succeeds.
	if _, err := CorruptForDemo(ds.T, "",
		[]inject.Spec{{Criterion: dq.Completeness, Severity: 0.2}}, 1); err != nil {
		t.Fatalf("classless corruption failed: %v", err)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := New(WithFolds(1)); !errors.Is(err, oberr.ErrBadConfig) {
		t.Fatalf("folds=1 err = %v, want ErrBadConfig", err)
	}
	if _, err := New(WithWorkers(-1)); !errors.Is(err, oberr.ErrBadConfig) {
		t.Fatalf("workers=-1 err = %v, want ErrBadConfig", err)
	}
	if _, err := New(WithCombos([][]dq.Criterion{{dq.Completeness}})); !errors.Is(err, oberr.ErrBadConfig) {
		t.Fatalf("1-combo err = %v, want ErrBadConfig", err)
	}
	_, err := New(WithAlgorithms("c45", "j48"))
	if !errors.Is(err, oberr.ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm err = %v, want ErrUnknownAlgorithm", err)
	}
	var ua *oberr.UnknownAlgorithmError
	if !errors.As(err, &ua) || ua.Name != "j48" || len(ua.Known) != 8 {
		t.Fatalf("detail lost: %v", err)
	}

	e := newEngine(t, WithSeed(9), WithFolds(3), WithWorkers(2), WithAlgorithms("c45", "naive-bayes"))
	if e.Seed() != 9 || e.Folds() != 3 || e.Workers() != 2 {
		t.Fatalf("accessors: seed=%d folds=%d workers=%d", e.Seed(), e.Folds(), e.Workers())
	}
}

// populateKB runs a tiny Phase-1 and loads the records into the engine via
// the persistence path (the only write entry points are RunExperiments and
// LoadKB by design).
func populateKB(t *testing.T, e *Engine, ds *mining.Dataset) {
	t.Helper()
	cfg := experiment.Config{
		Algorithms: map[string]mining.Factory{
			"naive-bayes": func() mining.Classifier { return mining.NewNaiveBayes() },
			"c45":         func() mining.Classifier { return mining.NewC45Tree() },
		},
		Criteria:   []dq.Criterion{dq.LabelNoise, dq.Completeness},
		Severities: []float64{0, 0.25, 0.5},
		Folds:      3,
		Seed:       e.Seed(),
	}
	recs, err := experiment.Phase1(context.Background(), cfg, ds, "core-test")
	if err != nil {
		t.Fatal(err)
	}
	store := kb.New()
	for _, r := range recs {
		store.Add(r)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadKB(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAdviseEndToEnd(t *testing.T) {
	e := newEngine(t, WithSeed(4))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 240, Seed: 4})
	populateKB(t, e, ds)

	dirty, err := CorruptForDemo(ds.T, "class",
		[]inject.Spec{{Criterion: dq.LabelNoise, Severity: 0.35}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := e.Advisor()
	if err != nil {
		t.Fatal(err)
	}
	advice, model, err := adv.Advise(context.Background(), dirty, "class")
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Ranked) != 2 {
		t.Fatalf("ranked = %d", len(advice.Ranked))
	}
	if model.Profile.Severity(dq.LabelNoise) < 0.2 {
		t.Fatalf("profile did not detect the injected noise: %v",
			model.Profile.Severity(dq.LabelNoise))
	}
	best := advice.Best()
	if best.PredictedKappa > best.BaselineKappa {
		t.Fatal("noise should not improve predicted kappa")
	}
}

func TestAdviseEmptyKBFails(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Advisor(); !errors.Is(err, oberr.ErrEmptyKB) {
		t.Fatalf("Advisor err = %v, want ErrEmptyKB", err)
	}
}

func TestRunExperimentsPopulatesKB(t *testing.T) {
	e := newEngine(t, WithSeed(6), WithFolds(3))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 150, Seed: 6})
	rep, err := e.RunExperiments(context.Background(), ds, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1Records == 0 || rep.Phase2Records == 0 || len(rep.Mixed) == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if e.KB().Len() != rep.Phase1Records+rep.Phase2Records {
		t.Fatalf("KB size %d != %d+%d", e.KB().Len(), rep.Phase1Records, rep.Phase2Records)
	}
}

func TestRunExperimentsCancellation(t *testing.T) {
	e := newEngine(t, WithSeed(6), WithFolds(3), WithWorkers(1))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 150, Seed: 6})
	ctx, cancel := context.WithCancel(context.Background())
	_, err := e.RunExperiments(ctx, ds, "tiny",
		WithProgress(func(experiment.Event) { cancel() }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.KB().Len() != 0 {
		t.Fatal("canceled run must not publish records")
	}
	// The run is all-or-nothing: retrying after a cancellation must yield
	// exactly one run's worth of records, not leftovers plus a rerun.
	rep, err := e.RunExperiments(context.Background(), ds, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if e.KB().Len() != rep.Phase1Records+rep.Phase2Records {
		t.Fatalf("retry duplicated records: KB %d != %d+%d",
			e.KB().Len(), rep.Phase1Records, rep.Phase2Records)
	}
}

// TestRunExperimentsPhase2CancellationRollsBack cancels after Phase 1
// completes (first Phase-2 event): no records at all may be committed.
func TestRunExperimentsPhase2CancellationRollsBack(t *testing.T) {
	e := newEngine(t, WithSeed(6), WithFolds(2), WithWorkers(1),
		WithAlgorithms("naive-bayes"),
		WithCombos([][]dq.Criterion{{dq.Completeness, dq.LabelNoise}, {dq.Completeness, dq.Imbalance}}))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 120, Seed: 6})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := e.RunExperiments(ctx, ds, "tiny",
		WithProgress(func(ev experiment.Event) {
			if ev.Phase == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.KB().Len() != 0 {
		t.Fatalf("Phase-2 cancellation leaked %d records into the store", e.KB().Len())
	}
}

func TestRunExperimentsProgressStreams(t *testing.T) {
	e := newEngine(t, WithSeed(6), WithFolds(2), WithAlgorithms("naive-bayes"),
		WithCombos([][]dq.Criterion{{dq.Completeness, dq.LabelNoise}}))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 120, Seed: 6})
	var phase1, phase2 int
	rep, err := e.RunExperiments(context.Background(), ds, "tiny",
		WithProgress(func(ev experiment.Event) {
			switch ev.Phase {
			case 1:
				phase1++
			case 2:
				phase2++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if phase1 != rep.Phase1Records || phase2 != rep.Phase2Records {
		t.Fatalf("events %d/%d, records %d/%d", phase1, phase2, rep.Phase1Records, rep.Phase2Records)
	}
}

func TestMineWithAdviceSharesLOD(t *testing.T) {
	e := newEngine(t, WithSeed(7))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 240, Seed: 7})
	populateKB(t, e, ds)

	adv, err := e.Advisor()
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.MineWithAdvice(context.Background(), ds.T, "class", "http://test.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm == "" {
		t.Fatal("no algorithm chosen")
	}
	if res.Metrics.Accuracy < 0.6 {
		t.Fatalf("advised mining accuracy = %v", res.Metrics.Accuracy)
	}
	// The model and advice are threaded through so the caller never has to
	// profile the source a second time.
	if res.Model == nil || res.Model.Profile.Rows != ds.Len() {
		t.Fatalf("mining result lacks the profiled model: %+v", res.Model)
	}
	if res.Advice.Best().Algorithm != res.Algorithm {
		t.Fatal("result advice does not match the chosen algorithm")
	}
	if res.Shared == nil || res.Shared.Len() == 0 {
		t.Fatal("shared LOD empty")
	}
	// Shared graph contains predicted labels.
	pred := rdf.NewIRI("http://test.example/def/predicted_class")
	found := false
	for _, tr := range res.Shared.Triples() {
		if tr.P == pred {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("shared LOD lacks predicted_class triples")
	}
	// Shared graph carries provenance: the KB Merkle root the advice was
	// served from, the source content hash, and the toolchain.
	wantProv := map[rdf.Term]bool{
		rdf.NewIRI("http://test.example/def/kbMerkleRoot"): false,
		rdf.NewIRI("http://test.example/def/sourceSha256"): false,
		rdf.NewIRI("http://test.example/def/toolchain"):    false,
	}
	for _, tr := range res.Shared.Triples() {
		if _, ok := wantProv[tr.P]; ok {
			wantProv[tr.P] = true
		}
	}
	for p, ok := range wantProv {
		if !ok {
			t.Fatalf("shared LOD lacks provenance triple %v", p)
		}
	}
	if root := e.KB().ProvenanceRoot(); root == "" {
		t.Fatal("populated snapshot has no provenance root")
	}
}

func TestKBSaveLoadThroughEngine(t *testing.T) {
	e := newEngine(t, WithSeed(8))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 150, Seed: 8})
	populateKB(t, e, ds)

	var buf bytes.Buffer
	if err := e.SaveKB(&buf); err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, WithSeed(8))
	if err := e2.LoadKB(&buf); err != nil {
		t.Fatal(err)
	}
	if e2.KB().Len() != e.KB().Len() {
		t.Fatalf("KB roundtrip %d != %d", e2.KB().Len(), e.KB().Len())
	}
	if err := e2.LoadKB(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk KB should error")
	}
}

// TestAdvisorSessionPinnedToSnapshot: an open session keeps serving from
// its snapshot even after the engine's KB is replaced.
func TestAdvisorSessionPinnedToSnapshot(t *testing.T) {
	e := newEngine(t, WithSeed(4))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 240, Seed: 4})
	populateKB(t, e, ds)

	adv, err := e.Advisor()
	if err != nil {
		t.Fatal(err)
	}
	before := adv.KB().Len()

	// Replace the engine's KB with an empty one.
	empty := kb.New()
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadKB(&buf); err != nil {
		t.Fatal(err)
	}
	if e.KB().Len() != 0 {
		t.Fatal("engine should now serve the empty KB")
	}
	if adv.KB().Len() != before {
		t.Fatal("advisor session lost its pinned snapshot")
	}
	if _, _, err := adv.Advise(context.Background(), ds.T, "class"); err != nil {
		t.Fatalf("pinned session stopped serving: %v", err)
	}
}

// TestConcurrentServing hammers one populated engine with parallel Advisor
// sessions (Advise and MineWithAdvice, each on the snapshot current when
// the session opened) while a LoadKB swaps the knowledge base mid-flight.
// Run under -race this is the serving-safety contract of the redesign:
// immutable snapshots + atomic publication.
func TestConcurrentServing(t *testing.T) {
	e := newEngine(t, WithSeed(4))
	ds := synth.MustMakeClassification(synth.ClassificationSpec{Rows: 240, Seed: 4})
	populateKB(t, e, ds)

	var kbBytes bytes.Buffer
	if err := e.SaveKB(&kbBytes); err != nil {
		t.Fatal(err)
	}

	dirty, err := CorruptForDemo(ds.T, "class",
		[]inject.Spec{{Criterion: dq.LabelNoise, Severity: 0.3}}, 9)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				adv, err := e.Advisor()
				if err != nil {
					t.Errorf("goroutine %d: advisor: %v", g, err)
					return
				}
				advice, _, err := adv.Advise(ctx, dirty, "class")
				if err != nil || advice.Best().Algorithm == "" {
					t.Errorf("goroutine %d: advise: %v", g, err)
					return
				}
				if g%2 == 0 {
					res, err := adv.MineWithAdvice(ctx, dirty, "class", "http://t.example/")
					if err != nil || res.Shared.Len() == 0 {
						t.Errorf("goroutine %d: mine: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent write side: re-publish the same KB while readers serve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := e.LoadKB(bytes.NewReader(kbBytes.Bytes())); err != nil {
				t.Errorf("LoadKB: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestIngestFileNoTypesProjectsAllSubjects(t *testing.T) {
	path := writeTemp(t, "d.nt", "<http://a> <http://p> \"1\" .\n")
	tb, err := IngestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("typeless projection rows = %d", tb.NumRows())
	}
}
