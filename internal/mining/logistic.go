package mining

import (
	"fmt"
	"math"

	"openbi/internal/stats"
	"openbi/internal/table"
)

// Logistic is multinomial logistic regression trained by mini-batch-free
// SGD with L2 regularization. Nominal attributes are one-hot encoded,
// numeric attributes standardized with training statistics; missing cells
// encode as all-zero (i.e. the training mean / no level), the standard
// "mean imputation in feature space" fallback. As the linear-model
// representative it is the grid's probe for class imbalance (its decision
// boundary follows the prior hard) and tolerates redundant attributes far
// better than Naive Bayes.
type Logistic struct {
	// Epochs is the number of SGD passes (default 60).
	Epochs int
	// LearningRate is the initial step size (default 0.1, decayed 1/t).
	LearningRate float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// Seed drives example shuffling.
	Seed int64

	weights  [][]float64 // [class][feature+1], last slot the bias
	features []featureSpec
	classes  int
	fallback int
	arena    *Arena

	// Reused scratch: softmax scores, plus the sparse encoding of one row —
	// indices and values of its nonzero features (one-hot levels leave most
	// of the dense vector zero, so the SGD inner loop, which skips zero
	// features anyway, only ever needs the nonzeros). Indices are ascending,
	// matching dense iteration order, so every accumulation visits the same
	// terms in the same order as the dense loops it replaces.
	scoreBuf []float64
	xIdx     []int
	xVal     []float64
	scored   scoredRow // the row scoreBuf holds; SGD reuses the buffer, so Fit resets it
}

// UseArena implements ArenaUser.
func (lg *Logistic) UseArena(a *Arena) { lg.arena = a }

// featureSpec maps one input column onto dense feature slots.
type featureSpec struct {
	col     int
	numeric bool
	offset  int     // first feature index
	width   int     // 1 for numeric, #levels for nominal
	mean    float64 // numeric standardization
	scale   float64
}

// NewLogistic returns an unfitted logistic regression.
func NewLogistic(seed int64) *Logistic { return &Logistic{Seed: seed} }

// Name implements Classifier.
func (lg *Logistic) Name() string { return "logistic" }

// Fit trains by SGD on the labeled rows.
func (lg *Logistic) Fit(ds *Dataset) error {
	lg.scored.reset()
	labeled := ds.LabeledRows()
	if len(labeled) == 0 {
		return fmt.Errorf("logistic: no labeled instances")
	}
	if lg.Epochs <= 0 {
		lg.Epochs = 60
	}
	if lg.LearningRate <= 0 {
		lg.LearningRate = 0.1
	}
	if lg.L2 == 0 {
		lg.L2 = 1e-4
	}
	lg.classes = ds.NumClasses()
	lg.fallback = ds.MajorityClass()

	// Build the feature layout.
	lg.features = lg.features[:0]
	width := 0
	for _, j := range ds.AttrCols() {
		if ds.T.ColumnKind(j) == table.Numeric {
			nums := ds.Floats(j)
			fs := featureSpec{col: j, numeric: true, offset: width, width: 1}
			fs.mean = stats.Mean(nums)
			sd := stats.StdDev(nums)
			if stats.IsMissing(fs.mean) {
				fs.mean = 0
			}
			if stats.IsMissing(sd) || sd == 0 {
				sd = 1
			}
			fs.scale = sd
			lg.features = append(lg.features, fs)
			width++
			continue
		}
		levels := ds.T.NumLevels(j)
		if levels == 0 {
			continue
		}
		lg.features = append(lg.features, featureSpec{col: j, offset: width, width: levels})
		width += levels
	}

	lg.weights = make([][]float64, lg.classes)
	for c := range lg.weights {
		lg.weights[c] = make([]float64, width+1)
	}

	rng := lg.arena.Rand(lg.Seed)
	lg.scoreBuf = lg.arena.F64(lg.classes)
	lg.xIdx = lg.arena.IntsRaw(len(lg.features) + 1)[:0]
	lg.xVal = lg.arena.F64Raw(len(lg.features) + 1)[:0]
	// The Fisher–Yates replica below assigns every slot of order before
	// any epoch reads it, so the handout can skip zeroing.
	order := lg.arena.IntsRaw(len(labeled))

	// Encode every training row once, CSR-style: the sparse features are a
	// pure function of the static training data, so each epoch's re-encode
	// of the same rows was pure repetition. Each row holds at most
	// len(features)+1 nonzeros, making the bound exact for the arena.
	maxNZ := len(labeled) * (len(lg.features) + 1)
	indptr := lg.arena.IntsRaw(len(labeled) + 1)
	csrIdx := lg.arena.IntsRaw(maxNZ)[:0]
	csrVal := lg.arena.F64Raw(maxNZ)[:0]
	for i, r := range labeled {
		indptr[i] = len(csrIdx)
		idx, val := lg.encodeSparse(ds, r)
		csrIdx = append(csrIdx, idx...)
		csrVal = append(csrVal, val...)
	}
	indptr[len(labeled)] = len(csrIdx)

	step := 0
	for epoch := 0; epoch < lg.Epochs; epoch++ {
		// In-place replica of rand.Perm's exact Fisher–Yates (same Intn
		// sequence, every slot overwritten), minus its per-epoch allocation.
		for i := range order {
			j := rng.Intn(i + 1)
			order[i] = order[j]
			order[j] = i
		}
		for _, oi := range order {
			r := labeled[oi]
			idx := csrIdx[indptr[oi]:indptr[oi+1]]
			val := csrVal[indptr[oi]:indptr[oi+1]]
			p := lg.softmax(idx, val)
			step++
			lr := lg.LearningRate / (1 + 0.001*float64(step))
			y := ds.Label(r)
			for c := 0; c < lg.classes; c++ {
				grad := p[c]
				if c == y {
					grad -= 1
				}
				w := lg.weights[c]
				// Zero features take no update (not even L2 decay — the
				// historical dense loop skipped them), so iterating only
				// the nonzeros is the same arithmetic.
				for k, f := range idx {
					w[f] -= lr * (grad*val[k] + lg.L2*w[f])
				}
			}
		}
	}
	return nil
}

// encodeSparse fills the scratch sparse encoding of row r: ascending
// feature indices and their nonzero values, bias last. A standardized
// numeric value that lands exactly on zero is omitted, exactly as the
// dense consumers' zero-skip treated it.
func (lg *Logistic) encodeSparse(ds *Dataset, r int) (idx []int, val []float64) {
	idx, val = lg.xIdx[:0], lg.xVal[:0]
	br := ds.row(r)
	for _, fs := range lg.features {
		c := ds.col(fs.col)
		if c.IsMissing(br) {
			continue
		}
		if fs.numeric {
			if v := (c.Nums[br] - fs.mean) / fs.scale; v != 0 {
				idx = append(idx, fs.offset)
				val = append(val, v)
			}
			continue
		}
		lvl := c.Cats[br]
		if lvl >= 0 && lvl < fs.width {
			idx = append(idx, fs.offset+lvl)
			val = append(val, 1)
		}
	}
	idx = append(idx, len(lg.weights[0])-1) // bias
	val = append(val, 1)
	lg.xIdx, lg.xVal = idx, val
	return idx, val
}

// softmax returns the class distribution for the sparse feature vector
// (idx, val). The returned slice is lg.scoreBuf: valid until the next
// call on lg.
func (lg *Logistic) softmax(idx []int, val []float64) []float64 {
	scores := lg.scoreBuf
	if len(scores) != lg.classes {
		scores = make([]float64, lg.classes)
		lg.scoreBuf = scores
	}
	for c, w := range lg.weights {
		s := 0.0
		for k, f := range idx {
			s += w[f] * val[k]
		}
		scores[c] = s
	}
	max := math.Inf(-1)
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	for c := range scores {
		scores[c] = math.Exp(scores[c] - max)
	}
	return normalize(scores)
}

// Predict returns the argmax-probability class.
func (lg *Logistic) Predict(ds *Dataset, r int) int {
	p := lg.predictScores(ds, r)
	if len(p) == 0 {
		return lg.fallback
	}
	return argmax(p)
}

// Proba returns the softmax class distribution (a fresh slice).
func (lg *Logistic) Proba(ds *Dataset, r int) []float64 {
	return append([]float64(nil), lg.predictScores(ds, r)...)
}

// predictScores encodes row r into the reused sparse buffers and returns
// the shared softmax scratch. Asked again for the row it last scored, it
// returns the held scores.
func (lg *Logistic) predictScores(ds *Dataset, r int) []float64 {
	if lg.scored.holds(ds, r) {
		return lg.scoreBuf
	}
	idx, val := lg.encodeSparse(ds, r)
	p := lg.softmax(idx, val)
	lg.scored.set(ds, r)
	return p
}
