package mining

import (
	"fmt"
	"math"

	"openbi/internal/table"
)

// NaiveBayes is a Gaussian/multinomial naive Bayes classifier: nominal
// attributes use Laplace-smoothed frequency estimates, numeric attributes
// per-class Gaussians. Missing attribute values are simply skipped at both
// training and prediction time, which makes NB famously robust to
// incompleteness — and its conditional-independence assumption makes it
// the canonical victim of the correlated-attribute defect the paper calls
// out in §3.1 ("though correct, will not provide the useful expected
// value"). The Phase-1 experiments quantify both behaviours.
type NaiveBayes struct {
	// Laplace is the additive smoothing constant (default 1).
	Laplace float64

	classes  int
	priors   []float64
	nominal  map[int][][]float64 // col -> [class][level] log prob
	gaussMu  map[int][]float64   // col -> [class] mean
	gaussSd  map[int][]float64   // col -> [class] stddev
	fallback int
	arena    *Arena

	// llBuf is the per-row log-likelihood scratch; logLikelihoods
	// overwrites every entry before returning it, and both callers consume
	// the slice before the next call, so one buffer serves all predictions.
	llBuf  []float64
	scored scoredRow // the row llBuf holds
}

// UseArena implements ArenaUser.
func (nb *NaiveBayes) UseArena(a *Arena) { nb.arena = a }

// NewNaiveBayes returns an unfitted NaiveBayes with Laplace=1.
func NewNaiveBayes() *NaiveBayes { return &NaiveBayes{Laplace: 1} }

// Name implements Classifier.
func (nb *NaiveBayes) Name() string { return "naive-bayes" }

// Fit estimates priors and per-attribute conditional distributions.
func (nb *NaiveBayes) Fit(ds *Dataset) error {
	nb.scored.reset()
	labeled := ds.LabeledRows()
	if len(labeled) == 0 {
		return fmt.Errorf("naive-bayes: no labeled instances")
	}
	if nb.Laplace <= 0 {
		nb.Laplace = 1
	}
	nb.classes = ds.NumClasses()
	nb.fallback = ds.MajorityClass()
	nb.llBuf = nb.arena.F64(nb.classes)

	counts := make([]float64, nb.classes)
	for _, r := range labeled {
		counts[ds.Label(r)]++
	}
	nb.priors = make([]float64, nb.classes)
	for c := range nb.priors {
		nb.priors[c] = (counts[c] + nb.Laplace) / (float64(len(labeled)) + nb.Laplace*float64(nb.classes))
	}

	nb.nominal = make(map[int][][]float64)
	nb.gaussMu = make(map[int][]float64)
	nb.gaussSd = make(map[int][]float64)

	for _, j := range ds.AttrCols() {
		col := ds.col(j)
		if col.Kind == table.Nominal {
			levels := col.NumLevels()
			if levels == 0 {
				continue
			}
			freq := make([][]float64, nb.classes)
			for c := range freq {
				freq[c] = make([]float64, levels)
			}
			perClass := make([]float64, nb.classes)
			for _, r := range labeled {
				br := ds.row(r)
				if col.IsMissing(br) {
					continue
				}
				freq[ds.Label(r)][col.Cats[br]]++
				perClass[ds.Label(r)]++
			}
			for c := 0; c < nb.classes; c++ {
				for l := 0; l < levels; l++ {
					freq[c][l] = math.Log((freq[c][l] + nb.Laplace) / (perClass[c] + nb.Laplace*float64(levels)))
				}
			}
			nb.nominal[j] = freq
			continue
		}
		mu := make([]float64, nb.classes)
		sd := make([]float64, nb.classes)
		n := make([]float64, nb.classes)
		for _, r := range labeled {
			br := ds.row(r)
			if col.IsMissing(br) {
				continue
			}
			c := ds.Label(r)
			mu[c] += col.Nums[br]
			n[c]++
		}
		for c := range mu {
			if n[c] > 0 {
				mu[c] /= n[c]
			}
		}
		for _, r := range labeled {
			br := ds.row(r)
			if col.IsMissing(br) {
				continue
			}
			c := ds.Label(r)
			d := col.Nums[br] - mu[c]
			sd[c] += d * d
		}
		for c := range sd {
			if n[c] > 1 {
				sd[c] = math.Sqrt(sd[c] / (n[c] - 1))
			}
			// Variance floor keeps degenerate columns from producing
			// infinite densities.
			if sd[c] < 1e-6 {
				sd[c] = 1e-6
			}
		}
		nb.gaussMu[j] = mu
		nb.gaussSd[j] = sd
	}
	return nil
}

// logLikelihoods returns unnormalized log P(class, x). The returned slice
// is nb.llBuf: valid until the next call on nb. Asked again for the row it
// last scored, it returns the held values.
func (nb *NaiveBayes) logLikelihoods(ds *Dataset, r int) []float64 {
	ll := nb.llBuf
	if nb.scored.holds(ds, r) {
		return ll
	}
	if len(ll) != nb.classes {
		ll = make([]float64, nb.classes)
		nb.llBuf = ll
	}
	for c := range ll {
		ll[c] = math.Log(nb.priors[c])
	}
	br := ds.row(r)
	for _, j := range ds.AttrCols() {
		col := ds.col(j)
		if col.IsMissing(br) {
			continue // NB's native missing handling: marginalize the attribute out
		}
		if col.Kind == table.Nominal {
			freq, ok := nb.nominal[j]
			if !ok {
				continue
			}
			lvl := col.Cats[br]
			for c := range ll {
				if lvl < len(freq[c]) {
					ll[c] += freq[c][lvl]
				}
			}
			continue
		}
		mu, ok := nb.gaussMu[j]
		if !ok {
			continue
		}
		sd := nb.gaussSd[j]
		x := col.Nums[br]
		for c := range ll {
			d := (x - mu[c]) / sd[c]
			ll[c] += -0.5*d*d - math.Log(sd[c]) - 0.5*math.Log(2*math.Pi)
		}
	}
	nb.scored.set(ds, r)
	return ll
}

// Predict returns the MAP class.
func (nb *NaiveBayes) Predict(ds *Dataset, r int) int {
	ll := nb.logLikelihoods(ds, r)
	if len(ll) == 0 {
		return nb.fallback
	}
	return argmax(ll)
}

// Proba returns the posterior distribution via the log-sum-exp trick.
func (nb *NaiveBayes) Proba(ds *Dataset, r int) []float64 {
	ll := nb.logLikelihoods(ds, r)
	max := math.Inf(-1)
	for _, v := range ll {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(ll))
	for i, v := range ll {
		out[i] = math.Exp(v - max)
	}
	return normalize(out)
}
