// Sharded execution of the experiment grid. The grid — every
// (algorithm × criterion × severity) cell of Phase 1 plus every
// (algorithm × combo) cell of Phase 2 — is embarrassingly parallel because
// each cell derives its own seed from its coordinates (taskSeed), never
// from execution order. ShardPlan turns that property into a stable
// partition across machines: each shard job executes only the cells it
// owns, journals completions to a checkpoint so a killed run resumes
// mid-grid, and emits a kb.Shard whose records carry their canonical grid
// positions. kb.Merge recombines the shards into a knowledge base that is
// byte-identical to a monolithic run with the same seed.
package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"openbi/internal/dq"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/table"
)

// ShardPlan is a stable partition of the experiment grid into Count
// shards, of which this process executes shard Index (0-based). Membership
// is a hash of each task's grid coordinates — the same strings that feed
// its taskSeed — so the partition is a pure function of (Index, Count) and
// the grid: identical on every machine, for every worker count, and across
// restarts.
type ShardPlan struct {
	Index int
	Count int
}

// MonolithicPlan is the single-shard plan: one job owns the whole grid.
// RunShard with this plan plus a checkpoint directory is how a monolithic
// run becomes resumable.
func MonolithicPlan() ShardPlan { return ShardPlan{Index: 0, Count: 1} }

// Validate checks the plan's shape.
func (p ShardPlan) Validate() error {
	if p.Count < 1 {
		return fmt.Errorf("experiment: shard plan needs >= 1 shards, got %d", p.Count)
	}
	if p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("experiment: shard index %d out of range [0,%d)", p.Index, p.Count)
	}
	return nil
}

// String renders the plan as "index/count" (the CLI's -shard syntax).
func (p ShardPlan) String() string { return fmt.Sprintf("%d/%d", p.Index, p.Count) }

// ParseShardPlan parses "index/count" with a 0-based index, e.g. "0/2" and
// "1/2" are the two shards of a 2-way plan.
func ParseShardPlan(s string) (ShardPlan, error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return ShardPlan{}, fmt.Errorf("experiment: shard %q: want index/count, e.g. 0/2", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(lhs))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(rhs))
	if err1 != nil || err2 != nil {
		return ShardPlan{}, fmt.Errorf("experiment: shard %q: want index/count, e.g. 0/2", s)
	}
	p := ShardPlan{Index: idx, Count: cnt}
	if err := p.Validate(); err != nil {
		return ShardPlan{}, err
	}
	return p, nil
}

// owns reports whether the task with the given stable key parts belongs to
// this shard. The hash deliberately excludes the run seed: ownership is a
// function of grid coordinates alone, so operators can reason about which
// shard ran a cell without knowing the seed.
func (p ShardPlan) owns(parts ...string) bool {
	if p.Count == 1 {
		return true
	}
	h := fnv.New64a()
	for _, s := range parts {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return int(h.Sum64()%uint64(p.Count)) == p.Index
}

// p1Key returns the shard-assignment key of a Phase-1 task: the same
// parts that feed its cross-validation taskSeed.
func p1Key(tk p1Task, coords []cellCoord) []string {
	co := coords[tk.cell]
	return []string{"cv", tk.algorithm, co.name(), fmt.Sprintf("%.3f", co.severity)}
}

// p2Key returns the shard-assignment key of a Phase-2 task.
func p2Key(tk p2Task, severity float64) []string {
	return []string{"mixcv", tk.algorithm, comboString(tk.combo), fmt.Sprintf("%.3f", severity)}
}

// ShardRun parameterizes RunShard beyond the Phase-1 Config: the Phase-2
// combos and severity that complete the grid, the shard to execute, and an
// optional checkpoint directory.
type ShardRun struct {
	// Plan selects the slice of the grid this call executes. The zero
	// value is invalid; use MonolithicPlan for a whole-grid run.
	Plan ShardPlan
	// Combos are the Phase-2 mixed-criteria combinations; nil runs
	// Phase 1 only.
	Combos [][]dq.Criterion
	// MixedSeverity is the per-criterion severity of Phase-2 injections
	// (default 0.3, the engine's canonical value).
	MixedSeverity float64
	// CheckpointDir, when non-empty, makes the run resumable: each
	// completed cell is journaled there (synced, torn-tail safe), and a
	// restart with the same configuration replays journaled cells instead
	// of re-executing them. The journal file is keyed by dataset name and
	// plan, so shards and corpora can share one directory.
	CheckpointDir string
}

// gridFingerprint digests everything that shapes the grid and its records:
// seed, folds, mechanism, dataset identity and *contents* (the table's CSV
// serialization — same-shaped but different data must not share a
// fingerprint, or a resume would silently replay stale measurements), the
// algorithm suite, criteria, severities, combos and the mixed severity.
// Checkpoints and merges refuse to combine work across different
// fingerprints. Hashing the table is O(cells), noise next to one grid
// cell's cross-validation.
func gridFingerprint(cfg Config, datasetName string, ds *mining.Dataset, combos [][]dq.Criterion, mixedSeverity float64) string {
	h := fnv.New64a()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w("grid-v2", strconv.FormatInt(cfg.Seed, 10), strconv.Itoa(cfg.Folds), cfg.Mechanism.String(),
		datasetName, strconv.Itoa(ds.T.NumRows()), strconv.Itoa(ds.T.NumCols()), strconv.Itoa(ds.ClassCol))
	_ = table.WriteCSV(h, ds.Table())
	w(cfg.AlgorithmNames()...)
	for _, c := range cfg.Criteria {
		w(c.String())
	}
	for _, s := range cfg.Severities {
		w(fmt.Sprintf("%.6f", s))
	}
	for _, combo := range combos {
		w(comboString(combo))
	}
	w(fmt.Sprintf("%.6f", mixedSeverity))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint is the exported form of gridFingerprint for provenance
// manifests: it applies the same Config defaulting RunShard does, so the
// value equals what shard metadata and checkpoint journals record for the
// same run. Manifests from monolithic and sharded runs of one
// configuration therefore chain on equal fingerprints.
func Fingerprint(cfg Config, datasetName string, ds *mining.Dataset, combos [][]dq.Criterion, mixedSeverity float64) string {
	cfg.applyDefaults()
	if mixedSeverity <= 0 {
		mixedSeverity = 0.3
	}
	return gridFingerprint(cfg, datasetName, ds, combos, mixedSeverity)
}

// DatasetContentHash digests a dataset's exact contents (its canonical CSV
// serialization) as lowercase-hex sha256 — the provenance chain from a
// knowledge base back to the data its experiment grid ran over.
func DatasetContentHash(ds *mining.Dataset) string {
	h := sha256.New()
	_ = table.WriteCSV(h, ds.Table())
	return hex.EncodeToString(h.Sum(nil))
}

// runShardPhase runs one phase of a shard: replay every journaled cell of
// the owned task indices as a Restored progress event, then execute the
// rest through exec, journaling each completion before it is reported.
// exec draws on a lazily prepared cell set, so a fully-replayed phase does
// no dataset work at all.
func runShardPhase(ctx context.Context, cfg Config, ck *checkpoint, phase int, owned []int, datasetName string,
	exec func(ti int, arena *mining.Arena) (kb.Record, error)) ([]kb.Record, error) {
	out := make([]kb.Record, len(owned))
	prog := newProgress(cfg.Progress, phase, len(owned), datasetName)
	var todo []int // positions in owned still to execute
	for j, ti := range owned {
		if rec, ok := ck.lookup(phase, ti); ok {
			out[j] = rec
			prog.restored(rec.Algorithm, rec.Criterion, rec.Severity)
			continue
		}
		todo = append(todo, j)
	}
	if len(todo) == 0 {
		return out, nil
	}
	arenas := workerArenas(cfg.Workers)
	err := runGrid(ctx, cfg.Workers, len(todo), func(k, w int) error {
		j := todo[k]
		ti := owned[j]
		rec, err := exec(ti, arenas[w])
		if err != nil {
			return err
		}
		if err := ck.append(phase, ti, rec); err != nil {
			return err
		}
		out[j] = rec
		prog.record(rec.Algorithm, rec.Criterion, rec.Severity)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunShard executes one shard of the full experiment grid (Phase 1 +
// Phase 2) and returns its positioned records. Merge the shards of a plan
// with kb.Merge to obtain a knowledge base byte-identical to the
// monolithic Phase1+Phase2 run with the same configuration.
//
// Cancellation follows the Phase1/Phase2 cell-boundary rule; with a
// checkpoint directory, cells completed before the cancellation are
// journaled, and a rerun resumes after them (emitting one Restored
// progress event per replayed cell).
//
// Note Phase-2 MixedResults (interaction effects vs. additive predictions)
// are not produced by shard runs: they need the full Phase-1 snapshot,
// which no single shard holds. The kb records are unaffected — predictions
// never enter the knowledge base.
func RunShard(ctx context.Context, cfg Config, ds *mining.Dataset, datasetName string, run ShardRun) (*kb.Shard, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.applyDefaults()
	if err := run.Plan.Validate(); err != nil {
		return nil, err
	}
	if run.MixedSeverity <= 0 {
		run.MixedSeverity = 0.3
	}
	coords := cellCoords(cfg)
	t1 := p1Tasks(cfg, len(coords))
	t2 := p2Tasks(cfg, run.Combos)
	meta := kb.ShardMeta{
		Version:     kb.ShardMetaVersion,
		Seed:        cfg.Seed,
		Index:       run.Plan.Index,
		Count:       run.Plan.Count,
		Dataset:     datasetName,
		DatasetHash: DatasetContentHash(ds),
		Fingerprint: gridFingerprint(cfg, datasetName, ds, run.Combos, run.MixedSeverity),
		Phase1Total: len(t1),
		Phase2Total: len(t2),
	}
	var own1, own2 []int
	for i, tk := range t1 {
		if run.Plan.owns(p1Key(tk, coords)...) {
			own1 = append(own1, i)
		}
	}
	for i, tk := range t2 {
		if run.Plan.owns(p2Key(tk, run.MixedSeverity)...) {
			own2 = append(own2, i)
		}
	}

	var ck *checkpoint
	if run.CheckpointDir != "" {
		var err error
		ck, err = openCheckpoint(run.CheckpointDir, meta)
		if err != nil {
			return nil, err
		}
		defer ck.close()
	}

	// Phase 1: replay journaled cells, execute the rest. Cells are only
	// built for tasks that actually execute.
	cells1 := phase1Cells(cfg, ds, coords)
	out1, err := runShardPhase(ctx, cfg, ck, 1, own1, datasetName, func(ti int, arena *mining.Arena) (kb.Record, error) {
		return runP1Task(cfg, coords, cells1, datasetName, t1[ti], arena)
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: same replay/execute split. Records never depend on the
	// Phase-1 snapshot, so a nil base is correct here — and the cells skip
	// the profile measurement that only feeds the discarded prediction
	// (see the note in the function comment).
	cells2 := phase2Cells(cfg, ds, run.Combos, run.MixedSeverity, false)
	out2, err := runShardPhase(ctx, cfg, ck, 2, own2, datasetName, func(ti int, arena *mining.Arena) (kb.Record, error) {
		_, rec, err := runP2Task(cfg, cells2, datasetName, nil, run.MixedSeverity, t2[ti], arena)
		return rec, err
	})
	if err != nil {
		return nil, err
	}

	sh := &kb.Shard{Meta: meta, Records: make([]kb.PositionedRecord, 0, len(own1)+len(own2))}
	for j, ti := range own1 {
		sh.Records = append(sh.Records, kb.PositionedRecord{Phase: 1, Index: ti, Record: out1[j]})
	}
	for j, ti := range own2 {
		sh.Records = append(sh.Records, kb.PositionedRecord{Phase: 2, Index: ti, Record: out2[j]})
	}
	return sh, nil
}
