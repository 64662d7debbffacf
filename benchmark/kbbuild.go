package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/experiment"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/provenance"
	"openbi/internal/synth"
)

// The kb-build grid is `openbi experiments` at its defaults: 500 rows,
// 5 folds, the standard suite, every criterion at the default severities,
// plus the Phase-2 pairs at severity 0.3.
const (
	kbRows        = 500
	kbFolds       = 5
	kbDataset     = "reference"
	mixedSeverity = 0.3 // the engine's Phase-2 severity

	// goldenKB pins `openbi experiments -rows 120 -folds 3 -seed 42`.
	goldenKB = "1fae960cefdcab53e41b447620e13d1f495439006ef2b6dfeba7443121fd66cd"
)

// gridWorkers is the experiment worker count: 2, or fewer on a smaller box.
func gridWorkers() int { return min(2, runtime.NumCPU()) }

// built is one finished KB build.
type built struct {
	doc      []byte
	base     *kb.KnowledgeBase
	manifest *provenance.Manifest
	records  int
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	lat      []float64 // per-record latency, ms
}

func newEngine(seed int64, folds int) (*core.Engine, error) {
	return core.New(core.WithSeed(seed), core.WithFolds(folds), core.WithWorkers(gridWorkers()))
}

func makeDataset(rows int, seed int64) (*mining.Dataset, error) {
	return synth.MakeClassification(synth.ClassificationSpec{Rows: rows, Seed: seed})
}

// buildKB runs the grid through the engine and finishes as cmdExperiments
// does, except that the KB is written to memory instead of a file:
// RunExperiments, SaveKB, kb.Load, kb.BuildManifest plus the manifest's
// chain fields. The engine is created before the clock starts (its cost is
// part of setup_s).
func buildKB(ds *mining.Dataset, seed int64, folds int) (*built, error) {
	eng, err := newEngine(seed, folds)
	if err != nil {
		return nil, err
	}
	clock := newRecordClock()
	w := openWindow()
	rep, err := eng.RunExperiments(context.Background(), ds, kbDataset, core.WithProgress(clock.event))
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := eng.SaveKB(&doc); err != nil {
		return nil, err
	}
	base, err := kb.Load(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return nil, err
	}
	m, err := kb.BuildManifest(doc.Bytes(), base)
	if err != nil {
		return nil, err
	}
	m.DatasetHash = experiment.DatasetContentHash(ds)
	m.GridFingerprint = eng.GridFingerprint(ds, kbDataset)
	st := w.close()
	return &built{doc: doc.Bytes(), base: base, manifest: m, records: rep.Phase1Records + rep.Phase2Records,
		wall: st.wall(), cpu: st.cpu, alloc: st.alloc, lat: clock.lat}, nil
}

// recordClock turns experiment progress events into per-record latencies:
// the time between two consecutive records finished by the same grid
// worker. A worker's first record of a phase has no predecessor and is
// skipped.
type recordClock struct {
	mu   sync.Mutex
	last map[uint64]time.Time
	lat  []float64
}

func newRecordClock() *recordClock { return &recordClock{last: map[uint64]time.Time{}} }

func (c *recordClock) event(experiment.Event) {
	now := time.Now()
	id := goid()
	c.mu.Lock()
	if prev, ok := c.last[id]; ok {
		c.lat = append(c.lat, ms(now.Sub(prev)))
	}
	c.last[id] = now
	c.mu.Unlock()
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenCheck rebuilds the pinned golden configuration (untimed) and
// compares its KB hash.
func goldenCheck() error {
	ds, err := makeDataset(120, 42)
	if err != nil {
		return err
	}
	b, err := buildKB(ds, 42, 3)
	if err != nil {
		return err
	}
	if got := sha(b.doc); got != goldenKB {
		return fmt.Errorf("golden KB hash %s, want %s", got, goldenKB)
	}
	return nil
}

// checkBuild verifies one build: the expected record count, the manifest
// over the exact bytes, and byte identity with the run's first build.
func checkBuild(r *run, b *built, first string) {
	r.attempted += int64(b.records)
	var errs []string
	if want := len(mining.SuiteNames()) * (1 + 5*len(dq.AllCriteria()) + len(core.DefaultCombos())); b.records != want {
		errs = append(errs, fmt.Sprintf("%d records, want %d", b.records, want))
	}
	if err := kb.VerifyManifest(b.manifest, b.doc, b.base); err != nil {
		errs = append(errs, "manifest: "+err.Error())
	}
	if first != "" && sha(b.doc) != first {
		errs = append(errs, "KB bytes differ from the run's first build")
	}
	if len(errs) > 0 {
		r.failed += int64(b.records) - 1
		r.fail("kb build: %s", strings.Join(errs, "; "))
	}
}

// kbDatasets is how many reference datasets a kb-build run cycles over.
// How much work the grid does depends on the dataset (tree sizes, solver
// iterations), so each run spreads its builds over several datasets derived
// from its seed instead of resting on one.
const kbDatasets = 3

// kbSeed is the seed of a run's d-th dataset and grid.
func kbSeed(seed int64, d int) int64 { return seed*kbDatasets + int64(d) }

// kbSetup is the workload's set-up: reference dataset generation plus
// engine construction, timed for every dataset several times and reported
// as the median.
func kbSetup(seed int64) ([]*mining.Dataset, float64, error) {
	sets := make([]*mining.Dataset, kbDatasets)
	var times []float64
	for i := range 20 * kbDatasets {
		d := i % kbDatasets
		t0 := time.Now()
		ds, err := makeDataset(kbRows, kbSeed(seed, d))
		if err != nil {
			return nil, 0, err
		}
		if _, err := newEngine(kbSeed(seed, d), kbFolds); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sets[d] = ds
	}
	return sets, median(times), nil
}

func runKBBuild(r *run) error {
	sets, setupS, err := kbSetup(r.seed)
	if err != nil {
		return err
	}
	r.attempted++
	if err := goldenCheck(); err != nil {
		r.fail("golden KB (-rows 120 -folds 3 -seed 42): %v", err)
	}
	// One untimed build first: heap growth and lazy runtime set-up are not
	// what the workload measures.
	warm, err := buildKB(sets[0], kbSeed(r.seed, 0), kbFolds)
	if err != nil {
		return err
	}
	checkBuild(r, warm, "")
	if r.traced {
		return kbBuildTraced(r, sets[0], warm)
	}

	// Builds cycle over the datasets; the run ends on a whole cycle once the
	// time is up, and every dataset is built at least twice so each repeat
	// can be compared byte for byte with the first.
	first := map[int]string{0: sha(warm.doc)}
	var walls, cpus, allocs, lat []float64
	debug.FreeOSMemory()
	w := openWindow()
	deadline := time.Now().Add(r.seconds)
	for i := 0; i < 2*kbDatasets || i%kbDatasets != 0 || time.Now().Before(deadline); i++ {
		d := i % kbDatasets
		b, err := buildKB(sets[d], kbSeed(r.seed, d), kbFolds)
		if err != nil {
			return err
		}
		checkBuild(r, b, first[d])
		if first[d] == "" {
			first[d] = sha(b.doc)
		}
		n := float64(b.records)
		walls = append(walls, b.wall.Seconds()/n)
		cpus = append(cpus, ms(b.cpu)/n)
		allocs = append(allocs, float64(b.alloc)/1024/n)
		lat = append(lat, b.lat...)
	}
	st := w.close()
	r.set("setup_s", setupS)
	r.set("ops_per_s", 1/median(walls))
	r.set("op_p50_ms", quantile(lat, 0.5))
	r.set("op_p95_ms", quantile(lat, 0.95))
	r.set("cpu_ms_per_op", median(cpus))
	r.set("alloc_kb_per_op", median(allocs))
	r.set("peak_rss_mb", float64(st.peakRSS)/(1<<20))
	r.note("builds", float64(len(walls)), "count", fmt.Sprintf("%d records each, %d datasets, %d workers", warm.records, kbDatasets, gridWorkers()))
	r.note("build_wall_s (median)", median(walls)*float64(warm.records), "s",
		fmt.Sprintf("min %.3f max %.3f", quantile(walls, 0)*float64(warm.records), quantile(walls, 1)*float64(warm.records)))
	r.note("kb_records_per_s", 1/median(walls), "records/s", "")
	r.note("record_latency_p95_ms", quantile(lat, 0.95), "ms", tailNote(len(lat), 0.95))
	r.note("record_latency_p99_ms", quantile(lat, 0.99), "ms", tailNote(len(lat), 0.99))
	r.note("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", "")
	return nil
}

// ---- traced build ----

// gridTrace records, per grid worker goroutine, the classifier folds it
// ran and the records it finished, through wrapped algorithm factories and
// the Progress hook. Spans are reconstructed from these logs after the run.
type gridTrace struct {
	mu     sync.Mutex
	events map[uint64][]gridEvent
}

type gridEvent struct {
	at    time.Time
	clf   *tracedClf // a fold began: the factory built this classifier
	phase int        // a record finished (clf == nil)
}

func (g *gridTrace) log(ev gridEvent) {
	id := goid()
	g.mu.Lock()
	g.events[id] = append(g.events[id], ev)
	g.mu.Unlock()
}

// wrap returns a factory that times Fit and the Predict/Proba loop of every
// classifier it builds. The wrapper forwards mining.ArenaUser to the inner
// classifier when it has one, and implements mining.ProbClassifier exactly
// when the inner does, so the evaluation harness does the same work (and
// the KB comes out byte-identical).
func (g *gridTrace) wrap(alg string, f mining.Factory) mining.Factory {
	return func() mining.Classifier {
		c := &tracedClf{alg: alg}
		g.log(gridEvent{at: time.Now(), clf: c})
		c.inner = f()
		if p, ok := c.inner.(mining.ProbClassifier); ok {
			return &tracedProbClf{tracedClf: c, prob: p}
		}
		return c
	}
}

func (g *gridTrace) progress(ev experiment.Event) {
	g.log(gridEvent{at: time.Now(), phase: ev.Phase})
}

type tracedClf struct {
	inner              mining.Classifier
	alg                string
	fitStart, fitEnd   time.Time
	predFirst, predEnd time.Time
}

func (c *tracedClf) Name() string { return c.inner.Name() }

func (c *tracedClf) UseArena(a *mining.Arena) {
	if au, ok := c.inner.(mining.ArenaUser); ok {
		au.UseArena(a)
	}
}

func (c *tracedClf) Fit(ds *mining.Dataset) error {
	c.fitStart = time.Now()
	err := c.inner.Fit(ds)
	c.fitEnd = time.Now()
	return err
}

func (c *tracedClf) Predict(ds *mining.Dataset, row int) int {
	if c.predFirst.IsZero() {
		c.predFirst = time.Now()
	}
	y := c.inner.Predict(ds, row)
	c.predEnd = time.Now()
	return y
}

type tracedProbClf struct {
	*tracedClf
	prob mining.ProbClassifier
}

func (c *tracedProbClf) Proba(ds *mining.Dataset, row int) []float64 {
	if c.predFirst.IsZero() {
		c.predFirst = time.Now()
	}
	p := c.prob.Proba(ds, row)
	c.predEnd = time.Now()
	return p
}

// tracedBuild holds one traced build's layer times.
type tracedBuild struct {
	wall, prepare, phase1, phase2 time.Duration
	save, load, manifest, chain   time.Duration
	fit, predict                  map[string]time.Duration
	fitCalls                      int
}

// buildTraced performs the same build as buildKB, but calls the experiment
// package directly — Phase 1, a snapshot, Phase 2, as Engine.RunExperiments
// does — so the algorithm factories can be wrapped.
func buildTraced(ds *mining.Dataset, seed int64, rec *recorder, req int64) (*built, *tracedBuild, error) {
	g := &gridTrace{events: map[uint64][]gridEvent{}}
	algs := map[string]mining.Factory{}
	for name, f := range mining.StandardSuite(seed) {
		algs[name] = g.wrap(name, f)
	}
	cfg := experiment.Config{Algorithms: algs, Folds: kbFolds, Seed: seed, Workers: gridWorkers(), Progress: g.progress}
	ctx := context.Background()
	eng, err := newEngine(seed, kbFolds) // for GridFingerprint, as the CLI uses it
	if err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	p1, err := experiment.Phase1(ctx, cfg, ds, kbDataset)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	staged := &kb.KnowledgeBase{Records: p1}
	snap := staged.Snapshot()
	t2 := time.Now()
	_, p2, err := experiment.Phase2(ctx, cfg, ds, kbDataset, snap, core.DefaultCombos(), mixedSeverity)
	if err != nil {
		return nil, nil, err
	}
	staged.Records = append(staged.Records, p2...)
	t3 := time.Now()
	var doc bytes.Buffer
	if err := staged.Save(&doc); err != nil {
		return nil, nil, err
	}
	t4 := time.Now()
	base, err := kb.Load(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	t5 := time.Now()
	m, err := kb.BuildManifest(doc.Bytes(), base)
	if err != nil {
		return nil, nil, err
	}
	t6 := time.Now()
	m.DatasetHash = experiment.DatasetContentHash(ds)
	m.GridFingerprint = eng.GridFingerprint(ds, kbDataset)
	t7 := time.Now()

	root := rec.add("kb.build", -1, req, t0, t7)
	ph1 := rec.add("experiment.phase1", root, req, t0, t1)
	rec.add("kb.snapshot", root, req, t1, t2)
	ph2 := rec.add("experiment.phase2", root, req, t2, t3)
	rec.add("kb.save", root, req, t3, t4)
	rec.add("kb.load", root, req, t4, t5)
	rec.add("provenance.build_manifest", root, req, t5, t6)
	rec.add("experiment.chain_fields", root, req, t6, t7)

	tb := &tracedBuild{wall: t7.Sub(t0), phase1: t1.Sub(t0), phase2: t3.Sub(t2),
		save: t4.Sub(t3), load: t5.Sub(t4), manifest: t6.Sub(t5), chain: t7.Sub(t6),
		fit: map[string]time.Duration{}, predict: map[string]time.Duration{}}
	tb.prepare = g.spans(rec, tb, req, ph1, t0, ph2, t2)
	b := &built{doc: doc.Bytes(), base: base, manifest: m, records: len(staged.Records), wall: tb.wall}
	return b, tb, nil
}

// spans reconstructs the grid's span tree from the per-worker logs:
// experiment.task (one per record; from the worker's previous record, or
// its first fold) → eval.fold (from one factory call to the next, the last
// to its final prediction) → mining.fit and mining.predict. It returns the Phase-1
// preparation time: from the Phase1 call to the first fold of any worker.
func (g *gridTrace) spans(rec *recorder, tb *tracedBuild, req int64, ph1 int, p1Start time.Time, ph2 int, p2Start time.Time) time.Duration {
	ids := make([]uint64, 0, len(g.events))
	for id := range g.events {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var firstFold time.Time
	for _, id := range ids {
		evs := g.events[id]
		phase := 0
		for _, ev := range evs {
			if ev.clf == nil {
				phase = ev.phase
				break
			}
		}
		if phase == 1 && evs[0].clf != nil && (firstFold.IsZero() || evs[0].at.Before(firstFold)) {
			firstFold = evs[0].at
		}
	}
	if !firstFold.IsZero() {
		rec.add("experiment.prepare", ph1, req, p1Start, firstFold)
	}
	task := int64(0)
	for _, id := range ids {
		evs := g.events[id]
		var taskStart time.Time
		var folds []*tracedClf
		var foldStarts []time.Time
		for _, ev := range evs {
			if ev.clf != nil {
				if taskStart.IsZero() {
					taskStart = ev.at
				}
				folds = append(folds, ev.clf)
				foldStarts = append(foldStarts, ev.at)
				continue
			}
			parent := ph1
			if ev.phase == 2 {
				parent = ph2
			}
			task++
			treq := req*100000 + task
			if taskStart.IsZero() {
				taskStart = ev.at
			}
			tid := rec.add("experiment.task", parent, treq, taskStart, ev.at)
			for i, c := range folds {
				// A fold runs until the next fold starts; the last one ends
				// with its last prediction, so the record's remaining work
				// (pooled metrics; Phase-2 dq.Measure) stays task self time.
				end := c.predEnd
				if i+1 < len(folds) {
					end = foldStarts[i+1]
				}
				if end.IsZero() {
					end = ev.at
				}
				fid := rec.add("eval.fold", tid, treq, foldStarts[i], end)
				if !c.fitEnd.IsZero() {
					rec.add("mining.fit", fid, treq, c.fitStart, c.fitEnd)
					tb.fit[c.alg] += c.fitEnd.Sub(c.fitStart)
					tb.fitCalls++
				}
				if !c.predFirst.IsZero() {
					rec.add("mining.predict", fid, treq, c.predFirst, c.predEnd)
					tb.predict[c.alg] += c.predEnd.Sub(c.predFirst)
				}
			}
			taskStart, folds, foldStarts = ev.at, nil, nil
		}
	}
	if firstFold.IsZero() {
		return 0
	}
	return firstFold.Sub(p1Start)
}

// kbBuildTraced alternates untraced and traced builds on the same inputs
// for the run's duration, checks that both produce the same KB bytes, and
// reports the per-layer metrics, the tracing overhead and the ladder.
func kbBuildTraced(r *run, ds *mining.Dataset, warm *built) error {
	seed, first := kbSeed(r.seed, 0), sha(warm.doc)
	rec := newRecorder()
	var untraced []float64
	var traced []*tracedBuild
	w := openWindow()
	deadline := time.Now().Add(r.seconds)
	for i := int64(0); len(traced) < 2 || time.Now().Before(deadline); i++ {
		b, err := buildKB(ds, seed, kbFolds)
		if err != nil {
			return err
		}
		checkBuild(r, b, first)
		untraced = append(untraced, b.wall.Seconds())
		tbuilt, tb, err := buildTraced(ds, seed, rec, i+1)
		if err != nil {
			return err
		}
		checkBuild(r, tbuilt, first) // the traced KB must hash like the untraced one
		traced = append(traced, tb)
	}
	st := w.close()

	// Per-layer values are medians over the traced builds.
	med := func(f func(*tracedBuild) time.Duration) float64 {
		xs := make([]float64, len(traced))
		for i, tb := range traced {
			xs[i] = f(tb).Seconds()
		}
		return median(xs)
	}
	workers := float64(gridWorkers())
	r.set("experiment.prepare_s", med(func(t *tracedBuild) time.Duration { return t.prepare }))
	r.set("experiment.phase1_s", med(func(t *tracedBuild) time.Duration { return t.phase1 }))
	r.set("experiment.phase2_s", med(func(t *tracedBuild) time.Duration { return t.phase2 }))
	var fitTotal, predTotal float64
	for _, alg := range mining.SuiteNames() {
		f := med(func(t *tracedBuild) time.Duration { return t.fit[alg] })
		p := med(func(t *tracedBuild) time.Duration { return t.predict[alg] })
		r.set("mining.fit_s."+alg, f)
		r.set("mining.predict_s."+alg, p)
		fitTotal += f
		predTotal += p
	}
	utils := make([]float64, len(traced))
	for i, t := range traced {
		var busy time.Duration
		for _, d := range t.fit {
			busy += d
		}
		for _, d := range t.predict {
			busy += d
		}
		utils[i] = busy.Seconds() / (workers * (t.phase1 + t.phase2).Seconds())
	}
	r.set("experiment.worker_util", median(utils))
	r.set("mining.fit_calls", float64(traced[0].fitCalls))
	for _, t := range traced[1:] {
		if t.fitCalls != traced[0].fitCalls {
			r.fail("mining.fit_calls differs between traced builds: %d vs %d", t.fitCalls, traced[0].fitCalls)
		}
	}
	// Self times from the span tree, per build.
	names := rec.byName()
	nb := float64(len(traced))
	foldSelf := names["eval.fold"].self.Seconds() / nb
	taskSelf := names["experiment.task"].self.Seconds() / nb
	r.set("eval.cv_self_s", foldSelf)
	r.set("experiment.task_self_s", taskSelf)
	r.set("kb.save_s", med(func(t *tracedBuild) time.Duration { return t.save }))
	r.set("kb.load_s", med(func(t *tracedBuild) time.Duration { return t.load }))
	r.set("provenance.build_manifest_s", med(func(t *tracedBuild) time.Duration { return t.manifest }))

	injectS, measureS, err := replayPrepare(r, ds, seed, warm.base)
	if err != nil {
		return err
	}
	r.set("inject.apply_s", injectS)
	r.set("dq.measure_s", measureS)
	r.set("runtime.gc_cpu_fraction", st.gcCPUFrac)
	r.set("runtime.gc_pause_p99_ms", ms(st.gcPauseP99))

	tracedWall := med(func(t *tracedBuild) time.Duration { return t.wall })
	r.set("trace.overhead_share", tracedWall/median(untraced)-1)

	// Ladder, in wall seconds per build. Parallel layers are worker-seconds
	// divided by the worker count; worker_idle is the fan-out wall time no
	// worker spent inside a record.
	fanout := med(func(t *tracedBuild) time.Duration { return t.phase1 + t.phase2 - t.prepare })
	idle := fanout - names["experiment.task"].total.Seconds()/nb/workers
	l := &ladder{title: "kb-build, one build", unit: "s", endToEnd: median(untraced), traced: tracedWall,
		remainder: "= engine and span bookkeeping between the timed calls"}
	l.add("experiment.prepare", r.values["experiment.prepare_s"],
		fmt.Sprintf("serial; replayed inject.Apply %.3f s + dq.Measure %.3f s over both phases", injectS, measureS))
	l.add("mining.fit", fitTotal/workers, fmt.Sprintf("%.3f worker-s / %d workers", fitTotal, int(workers)))
	l.add("mining.predict", predTotal/workers, fmt.Sprintf("%.3f worker-s", predTotal))
	l.add("eval.cv_self", foldSelf/workers, "fold splits, confusion matrix, kappa")
	l.add("experiment.task_self", taskSelf/workers, "per record outside folds: fold assignment, pooled metrics, Phase-2 inject + measure")
	l.add("experiment.worker_idle", idle, "fan-out wall with a worker between records or done early")
	l.add("kb.save", r.values["kb.save_s"], "")
	l.add("kb.load", r.values["kb.load_s"], "")
	l.add("provenance.build_manifest", r.values["provenance.build_manifest_s"], "")
	l.add("kb.snapshot", names["kb.snapshot"].total.Seconds()/nb, "Phase-1 snapshot Phase 2 predicts from")
	l.add("experiment.chain_fields", med(func(t *tracedBuild) time.Duration { return t.chain }), "dataset hash + grid fingerprint")
	r.ladder = l
	r.set("ladder.unattributed_share", l.unattributed())
	r.note("traced builds", nb, "count", fmt.Sprintf("untraced median %.3f s, traced median %.3f s", median(untraced), tracedWall))
	return rec.write(filepath.Join(r.traceDir, fmt.Sprintf("kb-build-seed%d.jsonl", r.seed)))
}

// taskSeed mirrors the experiment package's per-task seed derivation so
// the replay below touches exactly the grid's cells.
func taskSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", base)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// replayPrepare times inject.Apply and dq.Measure on the grid's own cell
// coordinates: the Phase-1 cells (clean + criterion × severity) and the
// Phase-2 per-record injections. The Phase-1 replay must reproduce the
// measured severities recorded in the KB, which checks that it replays the
// real cells.
func replayPrepare(r *run, ds *mining.Dataset, gridSeed int64, base *kb.KnowledgeBase) (injectS, measureS float64, err error) {
	opts := dq.MeasureOptions{ClassColumn: ds.ClassCol}
	t := time.Now()
	dq.Measure(ds.Table(), opts)
	measureS += time.Since(t).Seconds()
	recorded := map[string]float64{}
	for _, rec := range base.Records {
		if !rec.Mixed && rec.Severity > 0 {
			recorded[fmt.Sprintf("%s@%.3f", rec.Criterion, rec.Severity)] = rec.MeasuredSeverity
		}
	}
	for _, crit := range dq.AllCriteria() {
		for _, sev := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			seed := taskSeed(gridSeed, "inject", crit.String(), fmt.Sprintf("%.3f", sev))
			t := time.Now()
			out, err := inject.Apply(ds.T, ds.ClassCol, []inject.Spec{{Criterion: crit, Severity: sev}}, seed)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			p := dq.Measure(out, opts)
			measureS += time.Since(t1).Seconds()
			injectS += t1.Sub(t).Seconds()
			key := fmt.Sprintf("%s@%.3f", crit, sev)
			r.attempted++
			if got, want := p.Severity(crit), recorded[key]; got != want {
				r.fail("replayed cell %s measured %v, KB records %v", key, got, want)
			}
		}
	}
	for range mining.SuiteNames() {
		for _, combo := range core.DefaultCombos() {
			names := make([]string, len(combo))
			specs := make([]inject.Spec, len(combo))
			for i, c := range combo {
				names[i] = c.String()
				specs[i] = inject.Spec{Criterion: c, Severity: mixedSeverity}
			}
			seed := taskSeed(gridSeed, "mix", strings.Join(names, "+"), fmt.Sprintf("%.3f", mixedSeverity))
			t := time.Now()
			out, err := inject.Apply(ds.T, ds.ClassCol, specs, seed)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			dq.Measure(out, opts)
			measureS += time.Since(t1).Seconds()
			injectS += t1.Sub(t).Seconds()
		}
	}
	return injectS, measureS, nil
}
