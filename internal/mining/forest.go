package mining

import (
	"fmt"
	"math"
)

// RandomForest bags FeatureSample-randomized decision trees over bootstrap
// resamples and classifies by majority vote. It is the suite's
// variance-reduction representative: the Phase-1 grid shows it buying back
// much of the single tree's label-noise fragility, at the price the
// bench harness measures in fit time.
type RandomForest struct {
	// Trees is the ensemble size (default 25).
	Trees int
	// FeatureSample is the per-node attribute sample size; 0 means
	// ceil(sqrt(#attributes)).
	FeatureSample int
	// MaxDepth bounds member depth (default 25).
	MaxDepth int
	// Seed drives bootstrapping and feature sampling.
	Seed int64

	members  []*DecisionTree
	classes  int
	fallback int
	arena    *Arena
	votesBuf []float64
	scored   scoredRow // the row votesBuf holds
}

// UseArena implements ArenaUser: bootstrap row samples and the member
// trees' scratch come from a when non-nil. The fitted forest aliases arena
// memory and must be fully consumed before the arena is Reset.
func (rf *RandomForest) UseArena(a *Arena) { rf.arena = a }

// NewRandomForest returns an unfitted forest with the given size and seed.
func NewRandomForest(trees int, seed int64) *RandomForest {
	return &RandomForest{Trees: trees, Seed: seed}
}

// Name implements Classifier.
func (rf *RandomForest) Name() string { return "random-forest" }

// Fit grows the ensemble.
func (rf *RandomForest) Fit(ds *Dataset) error {
	rf.scored.reset()
	labeled := ds.LabeledRows()
	if len(labeled) == 0 {
		return fmt.Errorf("random-forest: no labeled instances")
	}
	if rf.Trees <= 0 {
		rf.Trees = 25
	}
	if rf.MaxDepth <= 0 {
		rf.MaxDepth = 25
	}
	fs := rf.FeatureSample
	if fs <= 0 {
		fs = int(math.Ceil(math.Sqrt(float64(ds.NumAttrs()))))
	}
	rf.classes = ds.NumClasses()
	rf.fallback = ds.MajorityClass()
	rng := rf.arena.Rand(rf.Seed)
	ds.Index() // one shared presort serves every bootstrap member tree

	rf.members = make([]*DecisionTree, 0, rf.Trees)
	for i := 0; i < rf.Trees; i++ {
		// Bootstrap over labeled rows.
		// Every slot is assigned below, so the handout can skip zeroing.
		sample := rf.arena.IntsRaw(len(labeled))
		for k := range sample {
			sample[k] = labeled[rng.Intn(len(labeled))]
		}
		boot := ds.Subset(sample)
		tree := &DecisionTree{
			Criterion:     Gini,
			MaxDepth:      rf.MaxDepth,
			MinLeaf:       1,
			Prune:         false, // bagging replaces pruning
			FeatureSample: fs,
			Seed:          rng.Int63(),
			arena:         rf.arena,
		}
		if err := tree.Fit(boot); err != nil {
			return fmt.Errorf("random-forest: member %d: %w", i, err)
		}
		rf.members = append(rf.members, tree)
	}
	return nil
}

// votes accumulates the member probability mass for row r into the reused
// vote buffer (valid until the next call on rf). Each member contributes
// its reached leaf's normalized class distribution — the same values its
// Proba copy carried, accumulated without materializing the copy. Asked
// again for the row it last scored, it returns the held votes.
func (rf *RandomForest) votes(ds *Dataset, r int) []float64 {
	out := rf.votesBuf
	if rf.scored.holds(ds, r) {
		return out
	}
	if len(out) != rf.classes {
		out = make([]float64, rf.classes)
		rf.votesBuf = out
	}
	for c := range out {
		out[c] = 0
	}
	for _, m := range rf.members {
		nd := m.route(ds, r)
		if nd == nil {
			if m.fallback < len(out) {
				out[m.fallback]++
			}
			continue
		}
		s := sum(nd.dist)
		if s == 0 {
			if m.fallback < len(out) {
				out[m.fallback]++
			}
			continue
		}
		for c := range out {
			if c < len(nd.dist) {
				out[c] += nd.dist[c] / s
			}
		}
	}
	rf.scored.set(ds, r)
	return out
}

// Predict returns the probability-vote winner.
func (rf *RandomForest) Predict(ds *Dataset, r int) int {
	v := rf.votes(ds, r)
	if len(v) == 0 {
		return rf.fallback
	}
	return argmax(v)
}

// Proba returns the normalized ensemble vote distribution (a fresh slice).
func (rf *RandomForest) Proba(ds *Dataset, r int) []float64 {
	return normalize(append([]float64(nil), rf.votes(ds, r)...))
}
