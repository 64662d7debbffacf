// Package experiment implements §3.1 of the paper — the experiment stage
// of Figure 2 that generates the DQ4DM knowledge base. Phase 1 applies
// algorithms "in the presence of data quality criteria" injected one at a
// time over a severity sweep; Phase 2 applies "a mixed set of data quality
// criteria"; the results populate kb.KnowledgeBase.
//
// Runs fan out over a bounded worker pool; every task derives its own
// deterministic seed, so results are identical regardless of parallelism.
// Both phases honour context cancellation between grid cells — an
// in-flight cross-validation finishes, but no new cell starts once the
// context is done — and can stream per-record completion through
// Config.Progress for observability.
package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
)

// Event is one progress notification: a grid record finished. Events are
// emitted serially (never two at once), so sinks need no locking of their
// own, but they run on the worker's goroutine — keep them fast.
type Event struct {
	// Phase is 1 for the simple-criterion sweep, 2 for mixed combinations.
	Phase int
	// Algorithm, Criterion and Severity locate the finished record;
	// Criterion is "clean" for baselines and "a+b" for Phase-2 combos.
	Algorithm string
	Criterion string
	Severity  float64
	// Dataset names the corpus the record belongs to (multi-corpus runs
	// interleave several).
	Dataset string
	// Restored marks a record replayed from a checkpoint journal instead
	// of executed; resumed runs emit one Restored event per journaled cell
	// before any new cell starts, so Completed still counts to Total.
	Restored bool
	// Completed counts records finished in this phase so far (including
	// this one); Total is the phase's size *for this run* — the full grid
	// for monolithic runs, only the owned cells for a shard run (compare
	// kb.ShardMeta's PhaseNTotal fields for the whole-grid sizes).
	Completed int
	Total     int
}

// Config parameterizes a run.
type Config struct {
	// Algorithms maps registry names to factories; nil means the standard
	// suite (mining.StandardSuite).
	Algorithms map[string]mining.Factory
	// Criteria lists the criteria to sweep; nil means dq.AllCriteria().
	Criteria []dq.Criterion
	// Severities is the sweep grid; nil means {0, 0.1, 0.2, 0.3, 0.4, 0.5}.
	// Severity 0 rows become the clean baselines.
	Severities []float64
	// Mechanism applies to the Completeness criterion (default MCAR).
	Mechanism inject.Mechanism
	// Folds is the cross-validation fold count (default 5).
	Folds int
	// Seed is the base seed; per-task seeds derive from it.
	Seed int64
	// Workers bounds parallelism (default runtime.GOMAXPROCS(0)).
	Workers int
	// Progress, when non-nil, receives one Event per completed record.
	// Calls are serialized across workers.
	Progress func(Event)
}

func (c *Config) applyDefaults() {
	if c.Algorithms == nil {
		c.Algorithms = mining.StandardSuite(c.Seed)
	}
	if c.Criteria == nil {
		c.Criteria = dq.AllCriteria()
	}
	if c.Severities == nil {
		c.Severities = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.Folds < 2 {
		c.Folds = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// AlgorithmNames returns the configured algorithm names, sorted.
func (c *Config) AlgorithmNames() []string {
	out := make([]string, 0, len(c.Algorithms))
	for n := range c.Algorithms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// progress serializes Event delivery from concurrent workers and owns the
// per-phase Completed counter.
type progress struct {
	mu      sync.Mutex
	sink    func(Event)
	phase   int
	total   int
	dataset string
	done    int
}

func newProgress(sink func(Event), phase, total int, dataset string) *progress {
	return &progress{sink: sink, phase: phase, total: total, dataset: dataset}
}

func (p *progress) record(algorithm, criterion string, severity float64) {
	p.emit(algorithm, criterion, severity, false)
}

func (p *progress) restored(algorithm, criterion string, severity float64) {
	p.emit(algorithm, criterion, severity, true)
}

func (p *progress) emit(algorithm, criterion string, severity float64, restored bool) {
	if p == nil || p.sink == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.sink(Event{
		Phase:     p.phase,
		Algorithm: algorithm,
		Criterion: criterion,
		Severity:  severity,
		Dataset:   p.dataset,
		Restored:  restored,
		Completed: p.done,
		Total:     p.total,
	})
}

// taskSeed derives a stable per-task seed from the run seed and the task
// coordinates, so adding workers or reordering tasks cannot change results.
func taskSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", base)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// cellCoord addresses one prepared dataset of the Phase-1 grid without
// materializing it: the injected criterion and severity (severity 0 is the
// clean cell; its criterion is meaningless).
type cellCoord struct {
	criterion dq.Criterion
	severity  float64
}

// name is the criterion label a record at this coordinate carries —
// "clean" for the severity-0 cell.
func (c cellCoord) name() string {
	if c.severity == 0 {
		return "clean"
	}
	return c.criterion.String()
}

// cellCoords enumerates the Phase-1 cells in canonical order: the clean
// cell first, then criterion-major severity sweeps. Every grid consumer —
// monolithic runs, shard plans, checkpoints — derives cell indices from
// this one enumeration, which is what makes shard outputs recombinable.
func cellCoords(cfg Config) []cellCoord {
	coords := []cellCoord{{severity: 0}}
	for _, crit := range cfg.Criteria {
		for _, sev := range cfg.Severities {
			if sev == 0 {
				continue
			}
			coords = append(coords, cellCoord{criterion: crit, severity: sev})
		}
	}
	return coords
}

// cell is one corrupted dataset shared by every algorithm — the paper's
// method evaluates all techniques on the same prepared test datasets
// (§3.1 step 2), which also lets the record carry the dq-measured severity
// of the injected defect. Phase-1 sweep points and Phase-2 pairs are both
// cells.
//
// Cells are the only materialization point of the grid: inject.Apply
// copy-on-writes exactly the columns a defect touches, the clean cell is
// the caller's dataset itself, and every split below a cell (fold train/
// test sets, bootstrap resamples) is a zero-copy view into it. The cell's
// table is never mutated after construction, which is what makes sharing
// it across the worker pool safe.
type cell struct {
	ds      *mining.Dataset
	profile dq.Profile // dq-measured profile of ds; zero when the set does not measure
}

// cellSpec is the recipe of one cell: the defects to inject and the
// injection seed, which depends only on the cell's coordinates, so a
// cell's content is identical no matter which task or process builds it.
type cellSpec struct {
	label string        // names the cell in errors
	specs []inject.Spec // nil for the clean cell, which is the input dataset itself
	seed  int64
}

// cellSet prepares a grid's cells on first use, inside the fan-out: the
// first task that needs a cell builds it while the other workers go on
// with their own tasks, every later task reads it, and a failed
// preparation hands its error to every task that needs the cell. Only
// cells whose tasks run are ever built, so a shard run corrupts just its
// slice of the grid.
type cellSet struct {
	ds      *mining.Dataset
	measure bool
	specs   []cellSpec
	slots   []cellSlot
}

type cellSlot struct {
	once sync.Once
	cell cell
	err  error
}

func newCellSet(ds *mining.Dataset, specs []cellSpec, measure bool) *cellSet {
	return &cellSet{ds: ds, measure: measure, specs: specs, slots: make([]cellSlot, len(specs))}
}

// phase1Cells is the cell set of coords, the grid's cellCoords(cfg).
// Phase-1 records carry measured severities, so every cell is measured.
func phase1Cells(cfg Config, ds *mining.Dataset, coords []cellCoord) *cellSet {
	specs := make([]cellSpec, len(coords))
	for i, co := range coords {
		if co.severity == 0 {
			continue // the clean cell
		}
		specs[i] = cellSpec{
			label: fmt.Sprintf("%s@%.2f", co.criterion, co.severity),
			specs: []inject.Spec{{Criterion: co.criterion, Severity: co.severity, Mechanism: cfg.Mechanism}},
			seed:  taskSeed(cfg.Seed, "inject", co.criterion.String(), fmt.Sprintf("%.3f", co.severity)),
		}
	}
	return newCellSet(ds, specs, true)
}

// phase2Cells is the cell set of the Phase-2 combos, each criterion
// injected at severity. The seed does not depend on the algorithm, so all
// algorithms share one table per combo. Only the additive prediction reads
// the measured profile, so measure is false when there is none to make.
func phase2Cells(cfg Config, ds *mining.Dataset, combos [][]dq.Criterion, severity float64, measure bool) *cellSet {
	specs := make([]cellSpec, len(combos))
	for i, combo := range combos {
		name := comboString(combo)
		sp := make([]inject.Spec, len(combo))
		for j, c := range combo {
			sp[j] = inject.Spec{Criterion: c, Severity: severity, Mechanism: cfg.Mechanism}
		}
		specs[i] = cellSpec{label: name, specs: sp, seed: taskSeed(cfg.Seed, "mix", name, fmt.Sprintf("%.3f", severity))}
	}
	return newCellSet(ds, specs, measure)
}

// get returns cell i, building it on first use.
func (s *cellSet) get(i int) (cell, error) {
	sl := &s.slots[i]
	sl.once.Do(func() { sl.cell, sl.err = s.prepare(s.specs[i]) })
	return sl.cell, sl.err
}

func (s *cellSet) prepare(sp cellSpec) (cell, error) {
	ds := s.ds
	if sp.specs != nil {
		corrupted, err := inject.Apply(ds.T, ds.ClassCol, sp.specs, sp.seed)
		if err != nil {
			return cell{}, fmt.Errorf("experiment: injecting %s: %w", sp.label, err)
		}
		if ds, err = mining.NewDataset(corrupted, ds.ClassCol); err != nil {
			return cell{}, err
		}
	}
	c := cell{ds: ds}
	if s.measure {
		c.profile = dq.Measure(ds.Table(), dq.MeasureOptions{ClassColumn: ds.ClassCol})
	}
	// Presort the numeric columns before any task reads the cell: the
	// index is shared by all fold splits, bootstrap resamples and forest
	// members below it, so workers only ever read it.
	ds.Index()
	return c, nil
}

// p1Task is one addressable unit of the Phase-1 grid: an algorithm
// evaluated on one cell. Its position in p1Tasks is the record's canonical
// index, shared by monolithic runs, shard plans and checkpoints.
type p1Task struct {
	algorithm string
	cell      int // index into cellCoords(cfg)
}

// p1Tasks enumerates the Phase-1 grid in canonical (algorithm-major, cell
// order) sequence.
func p1Tasks(cfg Config, nCells int) []p1Task {
	tasks := make([]p1Task, 0, len(cfg.Algorithms)*nCells)
	for _, alg := range cfg.AlgorithmNames() {
		for c := 0; c < nCells; c++ {
			tasks = append(tasks, p1Task{algorithm: alg, cell: c})
		}
	}
	return tasks
}

// runP1Task executes one Phase-1 grid cell. Everything that shapes the
// record — seeds, folds, measured severities — derives from the task's
// coordinates, never from execution order, which is what makes sharded and
// resumed runs byte-identical to monolithic ones.
func runP1Task(cfg Config, coords []cellCoord, cells *cellSet, datasetName string, tk p1Task, arena *mining.Arena) (kb.Record, error) {
	cl, err := cells.get(tk.cell)
	if err != nil {
		return kb.Record{}, err
	}
	co := coords[tk.cell]
	rec := kb.Record{
		Algorithm: tk.algorithm,
		Criterion: "clean",
		Severity:  co.severity,
		Dataset:   datasetName,
		Folds:     cfg.Folds,
	}
	if co.severity > 0 {
		rec.Criterion = co.criterion.String()
		rec.MeasuredSeverity = cl.profile.Severity(co.criterion)
		if co.criterion == dq.Completeness {
			rec.Mechanism = cfg.Mechanism.String()
		}
	} else {
		// The clean record anchors the advisor's curves with the clean
		// data's measured severity of every criterion.
		rec.MeasuredAll = map[string]float64{}
		for _, c := range dq.AllCriteria() {
			rec.MeasuredAll[c.String()] = cl.profile.Severity(c)
		}
	}
	cvSeed := taskSeed(cfg.Seed, "cv", tk.algorithm, rec.Criterion, fmt.Sprintf("%.3f", rec.Severity))
	rec.Seed = cvSeed
	m, err := eval.CrossValidateWith(cfg.Algorithms[tk.algorithm], cl.ds, cfg.Folds, cvSeed, arena)
	if err != nil {
		return kb.Record{}, fmt.Errorf("experiment: %s on %s@%.2f: %w", tk.algorithm, rec.Criterion, rec.Severity, err)
	}
	rec.Metrics = m
	return rec, nil
}

// runGrid executes fn(i, worker) for i in [0,n) over a pool of fixed
// worker goroutines, honouring ctx between cells: when ctx is done,
// running cells finish, no new cell starts, and runGrid returns
// ctx.Err(). Otherwise the first non-nil fn error (in task order) is
// returned. Once a task fails no new task is handed out, so a failing
// grid stops early; tasks are handed out in order, so every task before
// the failed one still runs and the error returned is the one a full run
// would return.
//
// Unlike a goroutine-per-task design, the fixed pool gives every task a
// stable worker identity in [0, workers) — the hook that lets callers key
// single-goroutine scratch state (mining.Arena) to a worker so it is
// reused across all the tasks that worker processes, without any locking.
func runGrid(ctx context.Context, workers, n int, fn func(i, worker int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	stop, failed := context.WithCancel(ctx)
	defer failed()
	errs := make([]error, n)
	tasks := make(chan int)
	go func() {
		defer close(tasks)
		for i := 0; i < n && stop.Err() == nil; i++ {
			select {
			case tasks <- i:
			case <-stop.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range tasks {
				if ctx.Err() != nil {
					return
				}
				if errs[i] = fn(i, w); errs[i] != nil {
					failed()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workerArenas returns one scratch arena per grid worker. Arenas are
// single-goroutine state; keying them to the fixed worker index is what
// keeps the reuse lock-free.
func workerArenas(workers int) []*mining.Arena {
	arenas := make([]*mining.Arena, workers)
	for i := range arenas {
		arenas[i] = mining.NewArena()
	}
	return arenas
}

// Phase1 runs the simple-criterion grid on a clean dataset and returns one
// kb.Record per (algorithm × criterion × severity) cell. The severity-0
// cell is evaluated once per algorithm and recorded with Criterion
// "clean"; its record carries the clean data's measured severity for every
// criterion (the advisor's curve anchors).
//
// Cancellation is honoured between grid cells: when ctx is done, running
// cells finish, no new cell starts, and Phase1 returns ctx.Err().
func Phase1(ctx context.Context, cfg Config, ds *mining.Dataset, datasetName string) ([]kb.Record, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.applyDefaults()
	coords := cellCoords(cfg)
	cells := phase1Cells(cfg, ds, coords)
	tasks := p1Tasks(cfg, len(coords))
	prog := newProgress(cfg.Progress, 1, len(tasks), datasetName)
	records := make([]kb.Record, len(tasks))
	arenas := workerArenas(cfg.Workers)
	err := runGrid(ctx, cfg.Workers, len(tasks), func(i, w int) error {
		rec, err := runP1Task(cfg, coords, cells, datasetName, tasks[i], arenas[w])
		if err != nil {
			return err
		}
		records[i] = rec
		prog.record(rec.Algorithm, rec.Criterion, rec.Severity)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return records, nil
}

// MixedResult is one Phase-2 outcome: the measured metrics of a criteria
// combination next to the additive prediction derived from Phase-1 curves,
// quantifying interaction effects.
type MixedResult struct {
	Algorithm      string         `json:"algorithm"`
	Criteria       []dq.Criterion `json:"criteria"`
	Severity       float64        `json:"severity"`
	Actual         eval.Metrics   `json:"actual"`
	PredictedKappa float64        `json:"predictedKappa"`
}

// Interaction returns actual kappa minus predicted kappa: negative values
// mean the combined defects hurt more than the sum of their parts
// (super-additive degradation, the shape the paper's Phase 2 exists to
// expose).
func (m MixedResult) Interaction() float64 {
	return m.Actual.Kappa - m.PredictedKappa
}

// p2Task is one addressable unit of the Phase-2 grid: an algorithm
// evaluated on one mixed-criteria combination. Its position in p2Tasks is
// the record's canonical index.
type p2Task struct {
	algorithm string
	combo     []dq.Criterion
	cell      int // index into the combos, and so into phase2Cells
}

// p2Tasks enumerates the Phase-2 grid in canonical (algorithm-major, combo
// order) sequence.
func p2Tasks(cfg Config, combos [][]dq.Criterion) []p2Task {
	tasks := make([]p2Task, 0, len(cfg.Algorithms)*len(combos))
	for _, alg := range cfg.AlgorithmNames() {
		for c, combo := range combos {
			tasks = append(tasks, p2Task{algorithm: alg, combo: combo, cell: c})
		}
	}
	return tasks
}

// runP2Task executes one Phase-2 grid cell: mine the combination's
// prepared cell and compare against the additive prediction read from
// base. Like runP1Task, the record depends only on the task's coordinates;
// only the MixedResult's PredictedKappa depends on base, so shard runs
// (which lack the full Phase-1 snapshot) pass a nil base and a cell set
// that skips the profile measurement only the prediction reads — the
// record is byte-identical.
func runP2Task(cfg Config, cells *cellSet, datasetName string, base *kb.Snapshot,
	severity float64, tk p2Task, arena *mining.Arena) (MixedResult, kb.Record, error) {
	cl, err := cells.get(tk.cell)
	if err != nil {
		return MixedResult{}, kb.Record{}, err
	}
	comboName := comboString(tk.combo)
	cvSeed := taskSeed(cfg.Seed, "mixcv", tk.algorithm, comboName, fmt.Sprintf("%.3f", severity))
	m, err := eval.CrossValidateWith(cfg.Algorithms[tk.algorithm], cl.ds, cfg.Folds, cvSeed, arena)
	if err != nil {
		return MixedResult{}, kb.Record{}, fmt.Errorf("experiment: %s on %s: %w", tk.algorithm, comboName, err)
	}
	res := MixedResult{
		Algorithm: tk.algorithm,
		Criteria:  tk.combo,
		Severity:  severity,
		Actual:    m,
	}
	if base != nil {
		// Predictions use the measured profile of the mixed data — exactly
		// the coordinates the advisor sees in production.
		res.PredictedKappa = base.PredictKappa(tk.algorithm, cl.profile.Severities())
	}
	rec := kb.Record{
		Algorithm: tk.algorithm,
		Criterion: comboName,
		Severity:  severity,
		Dataset:   datasetName,
		Mixed:     true,
		Folds:     cfg.Folds,
		Seed:      cvSeed,
		Metrics:   m,
	}
	return res, rec, nil
}

// Phase2 runs mixed-criteria combinations at a single severity per
// criterion and compares against additive predictions read from a
// Phase-1 knowledge-base snapshot. It returns the mixed results and the
// kb records (Criterion "a+b", Mixed=true) to be added to the knowledge
// base. Cancellation follows the same cell-boundary rule as Phase1.
func Phase2(ctx context.Context, cfg Config, ds *mining.Dataset, datasetName string, base *kb.Snapshot,
	combos [][]dq.Criterion, severity float64) ([]MixedResult, []kb.Record, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.applyDefaults()
	cells := phase2Cells(cfg, ds, combos, severity, base != nil)
	tasks := p2Tasks(cfg, combos)
	prog := newProgress(cfg.Progress, 2, len(tasks), datasetName)
	results := make([]MixedResult, len(tasks))
	records := make([]kb.Record, len(tasks))
	arenas := workerArenas(cfg.Workers)
	err := runGrid(ctx, cfg.Workers, len(tasks), func(i, w int) error {
		res, rec, err := runP2Task(cfg, cells, datasetName, base, severity, tasks[i], arenas[w])
		if err != nil {
			return err
		}
		results[i] = res
		records[i] = rec
		prog.record(rec.Algorithm, rec.Criterion, rec.Severity)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, records, nil
}

// comboString renders "completeness+label-noise".
func comboString(combo []dq.Criterion) string {
	s := ""
	for i, c := range combo {
		if i > 0 {
			s += "+"
		}
		s += c.String()
	}
	return s
}

// DefaultCombos returns the canonical Phase-2 pairs: every pair of
// distinct criteria from the given list.
func DefaultCombos(criteria []dq.Criterion) [][]dq.Criterion {
	var out [][]dq.Criterion
	for i := 0; i < len(criteria); i++ {
		for j := i + 1; j < len(criteria); j++ {
			out = append(out, []dq.Criterion{criteria[i], criteria[j]})
		}
	}
	return out
}
