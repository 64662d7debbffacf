package mining

import (
	"fmt"
	"math"

	"openbi/internal/stats"
	"openbi/internal/table"
)

// ZeroR is the majority-class baseline. It anchors every experiment table:
// an algorithm that cannot beat ZeroR on corrupted data has lost all
// signal, which is exactly the failure mode the advisor must steer
// non-expert users away from.
type ZeroR struct {
	majority int
	counts   []int
}

// NewZeroR returns an unfitted ZeroR.
func NewZeroR() *ZeroR { return &ZeroR{} }

// Name implements Classifier.
func (z *ZeroR) Name() string { return "zero-r" }

// Fit memorizes the majority class.
func (z *ZeroR) Fit(ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("zero-r: empty training set")
	}
	z.counts = ds.ClassCounts()
	z.majority = ds.MajorityClass()
	return nil
}

// Predict returns the majority class regardless of the instance.
func (z *ZeroR) Predict(_ *Dataset, _ int) int { return z.majority }

// Proba returns the training class prior.
func (z *ZeroR) Proba(_ *Dataset, _ int) []float64 {
	out := make([]float64, len(z.counts))
	for i, c := range z.counts {
		out[i] = float64(c)
	}
	return normalize(out)
}

// OneR is Holte's 1R: pick the single attribute whose one-level rule set
// has the lowest training error. Numeric attributes are discretized into
// equal-frequency bins. It is the simplest "real" classifier in the suite
// and, per Holte's original result, a surprisingly strong baseline on
// clean low-dimensional data — and brittle on noisy or missing data, which
// the Phase-1 experiments surface.
type OneR struct {
	// Bins is the number of quantile bins for numeric attributes (default 6).
	Bins int

	attr     int       // chosen attribute column
	cuts     []float64 // bin cut points for numeric chosen attribute
	ruleFor  []int     // bin/level code -> class
	missing  int       // class predicted for missing values
	fallback int       // majority class
}

// NewOneR returns an unfitted OneR with default binning.
func NewOneR() *OneR { return &OneR{Bins: 6} }

// Name implements Classifier.
func (o *OneR) Name() string { return "one-r" }

// Fit selects the best single-attribute rule set.
func (o *OneR) Fit(ds *Dataset) error {
	if o.Bins <= 1 {
		o.Bins = 6
	}
	labeled := ds.LabeledRows()
	if len(labeled) == 0 {
		return fmt.Errorf("one-r: no labeled instances")
	}
	o.fallback = ds.MajorityClass()
	k := ds.NumClasses()

	bestErr := math.Inf(1)
	o.attr = -1
	for _, j := range ds.AttrCols() {
		codes, cuts, levels := o.codesFor(ds, j)
		// counts[level][class], plus one extra level for missing.
		counts := make([][]int, levels+1)
		for i := range counts {
			counts[i] = make([]int, k)
		}
		for _, r := range labeled {
			code := codes[r]
			if code < 0 {
				code = levels // missing bucket
			}
			counts[code][ds.Label(r)]++
		}
		errs := 0
		rule := make([]int, levels)
		for lvl := 0; lvl < levels; lvl++ {
			best, total := o.fallback, 0
			for cls, c := range counts[lvl] {
				total += c
				if c > counts[lvl][best] {
					best = cls
				}
			}
			rule[lvl] = best
			errs += total - counts[lvl][best]
		}
		missBest, missTotal := o.fallback, 0
		for cls, c := range counts[levels] {
			missTotal += c
			if c > counts[levels][missBest] {
				missBest = cls
			}
		}
		errs += missTotal - counts[levels][missBest]

		errRate := float64(errs) / float64(len(labeled))
		if errRate < bestErr {
			bestErr = errRate
			o.attr = j
			o.cuts = cuts
			o.ruleFor = rule
			o.missing = missBest
		}
	}
	if o.attr < 0 {
		return fmt.Errorf("one-r: no usable attribute")
	}
	return nil
}

// codesFor maps every row of ds to a discrete code for attribute j,
// returning codes (−1 for missing), numeric cut points (nil for nominal)
// and the number of levels.
func (o *OneR) codesFor(ds *Dataset, j int) (codes []int, cuts []float64, levels int) {
	col := ds.col(j)
	codes = make([]int, ds.Len())
	if col.Kind == table.Nominal {
		for r := range codes {
			codes[r] = col.Cats[ds.row(r)]
		}
		return codes, nil, maxInt(col.NumLevels(), 1)
	}
	nums := ds.Floats(j)
	cuts = make([]float64, o.Bins-1)
	for i := 1; i < o.Bins; i++ {
		cuts[i-1] = stats.Quantile(nums, float64(i)/float64(o.Bins))
	}
	for r := 0; r < ds.Len(); r++ {
		br := ds.row(r)
		if col.IsMissing(br) {
			codes[r] = -1
			continue
		}
		codes[r] = binOf(col.Nums[br], cuts)
	}
	return codes, cuts, o.Bins
}

// Predict applies the learned single-attribute rule.
func (o *OneR) Predict(ds *Dataset, r int) int {
	col, br := ds.col(o.attr), ds.row(r)
	if col.IsMissing(br) {
		return o.missing
	}
	var code int
	if col.Kind == table.Nominal {
		code = col.Cats[br]
	} else {
		code = binOf(col.Nums[br], o.cuts)
	}
	if code < 0 || code >= len(o.ruleFor) {
		return o.fallback
	}
	return o.ruleFor[code]
}

func binOf(v float64, cuts []float64) int {
	b := 0
	for b < len(cuts) && v > cuts[b] {
		b++
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
