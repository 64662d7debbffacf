package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/experiment"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/oberr"
	"openbi/internal/rdf"
	"openbi/internal/table"
)

// Engine is the OpenBI serving object. Its configuration (seed, folds,
// workers, combos, algorithm suite) is fixed at New and never mutated, so
// any number of Advisor sessions can serve while another goroutine runs
// RunExperiments or LoadKB: readers serve from an immutable kb.Snapshot
// swapped atomically, writers serialize on an internal mutex. Configure
// with functional options at construction and read back with accessors.
type Engine struct {
	seed          int64
	folds         int
	workers       int
	combos        [][]dq.Criterion
	mixedSeverity float64
	algorithms    map[string]mining.Factory
	corpora       []Corpus

	// mu serializes the write side (store mutation + snapshot publication).
	mu    sync.Mutex
	store *kb.KnowledgeBase
	// snap is the published read side; never nil after New.
	snap atomic.Pointer[kb.Snapshot]
}

// Corpus is one named experiment dataset; see WithCorpus.
type Corpus struct {
	Name    string
	Dataset *mining.Dataset
}

// settings collects option values before validation.
type settings struct {
	seed       int64
	folds      int
	workers    int
	combos     [][]dq.Criterion
	algorithms []string
	corpora    []corpusEntry
}

// corpusEntry is one registered corpus before resolution: either a ready
// dataset (WithCorpus) or an RDF stream to ingest at New (WithLODCorpus).
type corpusEntry struct {
	name string
	ds   *mining.Dataset
	lod  *lodCorpusSpec
}

// lodCorpusSpec defers a streaming LOD ingestion to New, where its
// failure can be reported.
type lodCorpusSpec struct {
	r      io.Reader
	format string
	class  string // class column of the projected table
	opts   rdf.ProjectOptions
}

// Option configures an Engine at construction; see With*.
type Option func(*settings)

// WithSeed sets the seed driving all stochastic components (default 0).
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithFolds sets the cross-validation fold count used everywhere
// (default 5; must be >= 2).
func WithFolds(folds int) Option {
	return func(s *settings) { s.folds = folds }
}

// WithWorkers bounds experiment parallelism (default 0 = GOMAXPROCS).
// Results are identical for any worker count.
func WithWorkers(workers int) Option {
	return func(s *settings) { s.workers = workers }
}

// WithCombos sets the Phase-2 mixed-criteria combinations RunExperiments
// sweeps. The default is every pair from {completeness, label-noise,
// imbalance, correlation}.
func WithCombos(combos [][]dq.Criterion) Option {
	return func(s *settings) { s.combos = combos }
}

// WithAlgorithms restricts the mining suite to the named registry
// algorithms (default: the full mining.StandardSuite). Unknown names make
// New fail with an error matching oberr.ErrUnknownAlgorithm.
func WithAlgorithms(names ...string) Option {
	return func(s *settings) { s.algorithms = names }
}

// WithCorpus registers a named experiment corpus; call it once per
// dataset. RunCorpora mines the full Phase 1 + Phase 2 grid over every
// registered corpus in registration order, so the knowledge base learns
// degradation curves from several data shapes instead of one synthetic
// reference. Names must be unique and non-empty (oberr.ErrBadConfig
// otherwise).
func WithCorpus(name string, ds *mining.Dataset) Option {
	return func(s *settings) { s.corpora = append(s.corpora, corpusEntry{name: name, ds: ds}) }
}

// WithLODCorpus registers an experiment corpus ingested from an RDF
// stream: New consumes r once through the constant-memory decoder (see
// IngestLOD), projects the most populous entity class to a table, and
// supervises it on classColumn — so RunCorpora can learn degradation
// curves straight from Linked Open Data next to tabular corpora, in
// registration order. format is "nt" or "ttl". Ingestion or projection
// failures (bad syntax, unknown class column, no subjects) are reported
// by New.
func WithLODCorpus(name string, r io.Reader, format string, classColumn string) Option {
	return func(s *settings) {
		s.corpora = append(s.corpora, corpusEntry{name: name, lod: &lodCorpusSpec{
			r: r, format: format, class: classColumn,
			opts: rdf.ProjectOptions{LargestClass: true},
		}})
	}
}

// DefaultCombos returns the canonical Phase-2 criteria pairs an Engine
// uses when WithCombos is not given.
func DefaultCombos() [][]dq.Criterion {
	return experiment.DefaultCombos([]dq.Criterion{
		dq.Completeness, dq.LabelNoise, dq.Imbalance, dq.Correlation,
	})
}

// New builds an immutable Engine with an empty knowledge base. Option
// validation is eager: bad folds/workers return an error matching
// oberr.ErrBadConfig, unknown algorithm names one matching
// oberr.ErrUnknownAlgorithm.
func New(opts ...Option) (*Engine, error) {
	s := settings{folds: 5}
	for _, opt := range opts {
		opt(&s)
	}
	if s.folds < 2 {
		return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
			Field: "WithFolds", Reason: fmt.Sprintf("need >= 2 folds, got %d", s.folds)})
	}
	if s.workers < 0 {
		return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
			Field: "WithWorkers", Reason: fmt.Sprintf("need >= 0 workers, got %d", s.workers)})
	}
	for _, combo := range s.combos {
		if len(combo) < 2 {
			return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
				Field: "WithCombos", Reason: fmt.Sprintf("combo %v needs >= 2 criteria", combo)})
		}
	}
	seenCorpora := map[string]bool{}
	corpora := make([]Corpus, 0, len(s.corpora))
	for _, c := range s.corpora {
		field := "WithCorpus"
		if c.lod != nil {
			field = "WithLODCorpus"
		}
		switch {
		case c.name == "":
			return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
				Field: field, Reason: "corpus name must not be empty"})
		case c.ds == nil && c.lod == nil:
			return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
				Field: field, Reason: fmt.Sprintf("corpus %q has a nil dataset", c.name)})
		case seenCorpora[c.name]:
			return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
				Field: field, Reason: fmt.Sprintf("corpus %q registered twice", c.name)})
		}
		seenCorpora[c.name] = true
		ds := c.ds
		if c.lod != nil {
			if c.lod.r == nil {
				return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
					Field: "WithLODCorpus", Reason: fmt.Sprintf("corpus %q has a nil reader", c.name)})
			}
			ing, err := IngestLOD(c.lod.r, c.lod.format, c.lod.opts)
			if err != nil {
				return nil, fmt.Errorf("core: ingesting LOD corpus %q: %w", c.name, err)
			}
			ds, err = mining.NewDatasetByName(ing.Table, c.lod.class)
			if err != nil {
				return nil, fmt.Errorf("core: LOD corpus %q: %w", c.name, err)
			}
		}
		corpora = append(corpora, Corpus{Name: c.name, Dataset: ds})
	}
	suite := mining.StandardSuite(s.seed)
	algorithms := suite
	if s.algorithms != nil {
		algorithms = make(map[string]mining.Factory, len(s.algorithms))
		for _, name := range s.algorithms {
			f, ok := suite[name]
			if !ok {
				return nil, fmt.Errorf("core: %w",
					&oberr.UnknownAlgorithmError{Name: name, Known: mining.SuiteNames()})
			}
			algorithms[name] = f
		}
	}
	combos := s.combos
	if combos == nil {
		combos = DefaultCombos()
	}
	e := &Engine{
		seed:          s.seed,
		folds:         s.folds,
		workers:       s.workers,
		combos:        combos,
		mixedSeverity: 0.3,
		algorithms:    algorithms,
		corpora:       corpora,
		store:         kb.New(),
	}
	e.snap.Store(e.store.Snapshot())
	return e, nil
}

// Seed returns the engine's base seed.
func (e *Engine) Seed() int64 { return e.seed }

// Folds returns the cross-validation fold count.
func (e *Engine) Folds() int { return e.folds }

// Workers returns the configured parallelism bound (0 = GOMAXPROCS).
func (e *Engine) Workers() int { return e.workers }

// KB returns the currently published knowledge-base snapshot: an immutable
// view safe to query from any goroutine. Snapshots are replaced atomically
// by RunExperiments and LoadKB; hold one to keep a consistent view across
// queries (or use Advisor for the same plus mining entry points).
func (e *Engine) KB() *kb.Snapshot { return e.snap.Load() }

// ---- Experiments (Figure 2, left side; §3.1) ----

// ExperimentReport summarizes a RunExperiments / RunCorpora call.
type ExperimentReport struct {
	Phase1Records int
	Phase2Records int
	// Mixed carries the Phase-2 interaction results (actual vs. additive
	// prediction). Checkpointed runs leave it nil: the resumable path runs
	// Phase 2 without the in-memory Phase-1 snapshot that predictions are
	// read from (the knowledge-base records are identical either way).
	Mixed []experiment.MixedResult
}

// RunOption configures one RunExperiments call; see WithProgress and
// WithCheckpoint.
type RunOption func(*runSettings)

type runSettings struct {
	progress   func(experiment.Event)
	checkpoint string
}

// WithProgress streams one experiment.Event per completed grid record to
// sink. Events arrive serially (no two at once) but on worker goroutines;
// keep the sink fast. Checkpoint-resumed runs replay journaled records as
// Restored events before executing new cells.
func WithProgress(sink func(experiment.Event)) RunOption {
	return func(r *runSettings) { r.progress = sink }
}

// WithCheckpoint makes the run resumable: every completed grid cell is
// journaled (synced, torn-tail safe) under dir, and a rerun with the same
// engine configuration resumes mid-grid instead of restarting. The journal
// refuses configurations it was not written by. The resulting knowledge
// base is byte-identical to an un-checkpointed run; only the report's
// Mixed interaction results are omitted.
func WithCheckpoint(dir string) RunOption {
	return func(r *runSettings) { r.checkpoint = dir }
}

// RunExperiments executes Phase 1 (simple criteria) and Phase 2 (mixed
// criteria pairs) on a clean dataset and merges all records into the
// engine's knowledge base, publishing a fresh snapshot when done —
// advisors holding the previous snapshot are unaffected. The run is
// all-or-nothing: a failed or canceled run (ctx.Err() between grid cells)
// leaves the store untouched, so a retry on the same engine cannot
// duplicate records (resume a long grid across failures with
// WithCheckpoint). Writers — concurrent RunExperiments, LoadKB, SaveKB —
// serialize on the engine's mutex for the full run; readers are never
// blocked.
func (e *Engine) RunExperiments(ctx context.Context, ds *mining.Dataset, datasetName string, opts ...RunOption) (*ExperimentReport, error) {
	return e.runExperiments(ctx, []Corpus{{Name: datasetName, Dataset: ds}}, opts...)
}

// RunCorpora is RunExperiments over every corpus registered with
// WithCorpus, in registration order, committed and published as one
// atomic knowledge-base update. It fails with oberr.ErrBadConfig when the
// engine has no corpora.
func (e *Engine) RunCorpora(ctx context.Context, opts ...RunOption) (*ExperimentReport, error) {
	if len(e.corpora) == 0 {
		return nil, fmt.Errorf("core: %w", &oberr.ConfigError{
			Field: "WithCorpus", Reason: "RunCorpora needs at least one corpus; register them at New"})
	}
	return e.runExperiments(ctx, e.corpora, opts...)
}

// Corpora returns the names of the corpora registered with WithCorpus, in
// registration order.
func (e *Engine) Corpora() []string {
	names := make([]string, len(e.corpora))
	for i, c := range e.corpora {
		names[i] = c.Name
	}
	return names
}

// experimentConfig assembles the experiment.Config the engine's options
// pin down.
func (e *Engine) experimentConfig(progress func(experiment.Event)) experiment.Config {
	return experiment.Config{
		Algorithms: e.algorithms,
		Folds:      e.folds,
		Seed:       e.seed,
		Workers:    e.workers,
		Progress:   progress,
	}
}

// GridFingerprint returns the experiment-grid fingerprint this engine's
// configuration produces over a dataset — the same value shard metadata
// and checkpoint journals record — so provenance manifests written for
// monolithic and sharded runs of one configuration chain on equal
// fingerprints.
func (e *Engine) GridFingerprint(ds *mining.Dataset, datasetName string) string {
	return experiment.Fingerprint(e.experimentConfig(nil), datasetName, ds, e.combos, e.mixedSeverity)
}

func (e *Engine) runExperiments(ctx context.Context, corpora []Corpus, opts ...RunOption) (*ExperimentReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rs runSettings
	for _, opt := range opts {
		opt(&rs)
	}
	cfg := e.experimentConfig(rs.progress)
	e.mu.Lock()
	defer e.mu.Unlock()
	// All mutation happens on a staged (unpublished, uncommitted) copy;
	// the store and snapshot move only after every corpus succeeded.
	staged := &kb.KnowledgeBase{Records: append([]kb.Record(nil), e.store.Records...)}
	report := &ExperimentReport{}
	for _, corpus := range corpora {
		if rs.checkpoint != "" {
			// Resumable path: the whole grid as one checkpointed shard.
			sh, err := experiment.RunShard(ctx, cfg, corpus.Dataset, corpus.Name, experiment.ShardRun{
				Plan:          experiment.MonolithicPlan(),
				Combos:        e.combos,
				MixedSeverity: e.mixedSeverity,
				CheckpointDir: rs.checkpoint,
			})
			if err != nil {
				return nil, err
			}
			merged, err := kb.Merge(sh)
			if err != nil {
				return nil, err
			}
			report.Phase1Records += sh.Meta.Phase1Total
			report.Phase2Records += sh.Meta.Phase2Total
			staged.Records = append(staged.Records, merged.Records...)
			continue
		}
		p1, err := experiment.Phase1(ctx, cfg, corpus.Dataset, corpus.Name)
		if err != nil {
			return nil, err
		}
		// Phase 2 predicts from the store as of Phase 1 — the same records
		// the advisor would see.
		staged.Records = append(staged.Records, p1...)
		mixed, p2, err := experiment.Phase2(ctx, cfg, corpus.Dataset, corpus.Name, staged.Snapshot(), e.combos, e.mixedSeverity)
		if err != nil {
			return nil, err
		}
		staged.Records = append(staged.Records, p2...)
		report.Phase1Records += len(p1)
		report.Phase2Records += len(p2)
		report.Mixed = append(report.Mixed, mixed...)
	}
	e.store = staged
	e.snap.Store(e.store.Snapshot())
	return report, nil
}

// RunExperimentShard executes one shard of the engine's experiment grid —
// the slice of Phase 1 + Phase 2 cells that plan owns — and returns its
// positioned records without touching the engine's knowledge base: shard
// outputs are partial by design and only become a servable KB through
// kb.Merge (or `openbi kb merge`). Pass WithCheckpoint to journal
// completed cells so a killed shard job resumes mid-grid.
//
// Merging every shard of a plan yields a knowledge base byte-identical to
// RunExperiments on the same engine configuration.
func (e *Engine) RunExperimentShard(ctx context.Context, ds *mining.Dataset, datasetName string,
	plan experiment.ShardPlan, opts ...RunOption) (*kb.Shard, error) {
	var rs runSettings
	for _, opt := range opts {
		opt(&rs)
	}
	return experiment.RunShard(ctx, e.experimentConfig(rs.progress), ds, datasetName, experiment.ShardRun{
		Plan:          plan,
		Combos:        e.combos,
		MixedSeverity: e.mixedSeverity,
		CheckpointDir: rs.checkpoint,
	})
}

// ---- Advice + mining (Figure 2, right side) ----

// Advisor is one online advice session: a read-only handle pinned to the
// knowledge-base snapshot current at creation. All its methods are
// lock-free reads, safe to call from any number of goroutines, and keep
// answering from the same consistent KB even while the engine re-runs
// experiments or loads a different knowledge base.
type Advisor struct {
	snap *kb.Snapshot
	seed int64
}

// Advisor opens an advice session against the current snapshot. It fails
// with an error matching oberr.ErrEmptyKB when no experiments have been
// run or loaded yet.
func (e *Engine) Advisor() (*Advisor, error) {
	s := e.snap.Load()
	if s.Len() == 0 {
		return nil, fmt.Errorf("core: %w; run experiments first", oberr.ErrEmptyKB)
	}
	return &Advisor{snap: s, seed: e.seed}, nil
}

// KB returns the snapshot the session is pinned to.
func (a *Advisor) KB() *kb.Snapshot { return a.snap }

// Advise measures a source and ranks the suite's algorithms for it using
// the session's snapshot.
func (a *Advisor) Advise(ctx context.Context, src table.Access, classColumn string) (kb.Advice, *Model, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return kb.Advice{}, nil, err
		}
	}
	m, err := BuildModel(src, classColumn)
	if err != nil {
		return kb.Advice{}, nil, err
	}
	advice, err := a.snap.Advise(m.Profile)
	if err != nil {
		return kb.Advice{}, nil, err
	}
	return advice, m, nil
}

// MiningResult is the outcome of MineWithAdvice.
type MiningResult struct {
	Algorithm string
	Metrics   eval.Metrics
	// Advice is the full ranking that selected Algorithm.
	Advice kb.Advice
	// Model is the annotated common representation measured for the
	// advice — returned so callers need not profile the source again.
	Model *Model
	// Shared is the result re-exported as LOD: one entity per test
	// instance with its predicted label.
	Shared *rdf.Graph
}

// MineWithAdvice runs the full user path: advise on the source, train the
// recommended algorithm on a stratified 70/30 split, evaluate, and share
// predictions as LOD under the given base IRI. The source is profiled
// exactly once; the resulting Model and Advice ride along in the result.
// Cancellation is checked between the profile, training and sharing
// stages.
func (a *Advisor) MineWithAdvice(ctx context.Context, src table.Access, classColumn, baseIRI string) (*MiningResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := src.Materialize()
	advice, model, err := a.Advise(ctx, t, classColumn)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	best := advice.Best().Algorithm
	factory, err := mining.Lookup(best, a.seed)
	if err != nil {
		return nil, err
	}
	ds, err := mining.NewDatasetByName(t, classColumn)
	if err != nil {
		return nil, err
	}
	trainRows, testRows, err := eval.TrainTestSplit(ds, 0.3, a.seed)
	if err != nil {
		return nil, err
	}
	train, test := ds.Subset(trainRows), ds.Subset(testRows)
	metrics, _, err := eval.Holdout(factory, train, test)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Share: predictions on the test split go back out as LOD.
	clf := factory()
	if err := clf.Fit(train); err != nil {
		return nil, err
	}
	shared := t.SelectRows(testRows)
	pred := table.NewNominalColumn("predicted_" + classColumn)
	for r := 0; r < test.Len(); r++ {
		pred.AppendLabel(test.ClassName(clf.Predict(test, r)))
	}
	shared.MustAddColumn(pred)
	if baseIRI == "" {
		baseIRI = "http://openbi.example.org/"
	}
	g := rdf.TableToGraph(shared, baseIRI, sanitizeClassName(t.Name))

	// Provenance triples: the shared predictions carry the lineage they
	// were derived under — the knowledge base's Merkle root (the value a
	// kb.json.manifest pins), the exact source contents, and the toolchain —
	// so a consumer of the LOD can trace every prediction back to a
	// verifiable advisor state.
	srcHash := sha256.New()
	_ = table.WriteCSV(srcHash, t)
	prov := rdf.NewIRI(baseIRI + "provenance/" + sanitizeClassName(t.Name))
	if root := a.snap.ProvenanceRoot(); root != "" {
		g.Add(rdf.Triple{S: prov, P: rdf.NewIRI(baseIRI + "def/kbMerkleRoot"), O: rdf.NewLiteral(root)})
	}
	g.Add(rdf.Triple{S: prov, P: rdf.NewIRI(baseIRI + "def/sourceSha256"), O: rdf.NewLiteral(hex.EncodeToString(srcHash.Sum(nil)))})
	g.Add(rdf.Triple{S: prov, P: rdf.NewIRI(baseIRI + "def/toolchain"), O: rdf.NewLiteral(runtime.Version())})
	return &MiningResult{Algorithm: best, Metrics: metrics, Advice: advice, Model: model, Shared: g}, nil
}

// ---- KB persistence ----

// SaveKB writes the knowledge base to w.
func (e *Engine) SaveKB(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Save(w)
}

// LoadKB replaces the engine's knowledge base with one read from r and
// publishes it atomically; existing Advisor sessions keep their snapshot.
func (e *Engine) LoadKB(r io.Reader) error {
	loaded, err := kb.Load(r)
	if err != nil {
		return err
	}
	return e.ReplaceKB(loaded)
}

// ReplaceKB swaps in an already-built knowledge base — typically the
// output of kb.Merge over shard files — and publishes it atomically;
// existing Advisor sessions keep their snapshot. The engine takes
// ownership of k; the caller must not mutate it afterwards.
func (e *Engine) ReplaceKB(k *kb.KnowledgeBase) error {
	if k == nil {
		return fmt.Errorf("core: %w", &oberr.ConfigError{
			Field: "ReplaceKB", Reason: "knowledge base must not be nil"})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = k
	e.snap.Store(k.Snapshot())
	return nil
}
