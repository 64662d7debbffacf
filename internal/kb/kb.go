// Package kb implements the DQ4DM knowledge base of Figure 2: the
// persistent store of experiment outcomes ("applying algorithms in the
// presence of data quality criteria") and the advisor that turns it into
// the paper's promise to the non-expert user — "the best option is
// ALGORITHM X".
//
// The package is split along the paper's offline/online boundary:
//
//   - KnowledgeBase is the write side — an append-only record store that
//     experiment runs populate and Save/Load persist. It is not safe for
//     concurrent use; one writer owns it.
//   - Snapshot is the read side — an immutable view with every curve,
//     baseline and sensitivity precomputed at construction, so Advise and
//     PredictKappa are lock-free lookups that any number of goroutines can
//     share (see Snapshot).
package kb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/oberr"
)

// Record is one experiment outcome: an algorithm evaluated by
// cross-validation on a dataset corrupted along one criterion at one
// severity. Severity 0 records are the clean baselines. Mixed-criteria
// (Phase 2) runs store one record per involved criterion, flagged Mixed.
type Record struct {
	Algorithm string  `json:"algorithm"`
	Criterion string  `json:"criterion"`
	Severity  float64 `json:"severity"`
	// MeasuredSeverity is the dq-measured severity of the injected
	// criterion on the corrupted data. Injected and measured severities
	// differ because measurement has an intrinsic floor (e.g. the 1-NN
	// label-noise estimate reads the Bayes overlap of even clean data);
	// tables report the injected axis, while the advisor interpolates on
	// the measured axis so that recording and querying share coordinates.
	MeasuredSeverity float64 `json:"measuredSeverity"`
	// MeasuredAll, on clean (severity-0) records, carries the measured
	// severity of *every* criterion on the clean data, keyed by criterion
	// name — the left anchor of each measured-axis curve.
	MeasuredAll map[string]float64 `json:"measuredAll,omitempty"`
	Mechanism   string             `json:"mechanism,omitempty"` // completeness only
	Dataset     string             `json:"dataset"`
	Mixed       bool               `json:"mixed,omitempty"`
	Folds       int                `json:"folds"`
	Seed        int64              `json:"seed"`
	Metrics     eval.Metrics       `json:"metrics"`
}

// KnowledgeBase is the write side of the DQ4DM store: an append-only
// sequence of experiment records. Mutation is Add only; every read —
// curves, baselines, sensitivities, advice — goes through Snapshot(). A
// KnowledgeBase is owned by a single writer — it does no internal locking
// (core.Engine serializes its writes).
type KnowledgeBase struct {
	Records []Record `json:"records"`
}

// New returns an empty knowledge base.
func New() *KnowledgeBase { return &KnowledgeBase{} }

// Add appends a record.
func (k *KnowledgeBase) Add(r Record) { k.Records = append(k.Records, r) }

// Len returns the number of records.
func (k *KnowledgeBase) Len() int { return len(k.Records) }

func algorithmsOf(records []Record) []string {
	set := map[string]bool{}
	for _, r := range records {
		set[r.Algorithm] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// CurvePoint is one (severity, mean metric) sample of a degradation curve.
type CurvePoint struct {
	Severity float64
	Kappa    float64
	Accuracy float64
	MacroF1  float64
	N        int // records averaged
}

// curveOf computes the Phase-1 degradation curve of one algorithm under
// one criterion over a record sequence: records grouped by severity
// (mixed-run records excluded), averaged in record order, sorted by
// severity. With measured set, severities come from the measured axis
// (MeasuredAll anchors for clean records, MeasuredSeverity otherwise).
func curveOf(records []Record, algorithm string, criterion dq.Criterion, measured bool) []CurvePoint {
	groups := map[float64][]eval.Metrics{}
	for _, r := range records {
		if r.Algorithm != algorithm || r.Mixed {
			continue
		}
		if r.Severity == 0 || r.Criterion == criterion.String() {
			x := r.Severity
			if measured {
				if r.Severity == 0 {
					x = r.MeasuredAll[criterion.String()]
				} else {
					x = r.MeasuredSeverity
				}
			}
			groups[x] = append(groups[x], r.Metrics)
		}
	}
	sevs := make([]float64, 0, len(groups))
	for s := range groups {
		sevs = append(sevs, s)
	}
	sort.Float64s(sevs)
	out := make([]CurvePoint, 0, len(sevs))
	for _, s := range sevs {
		ms := groups[s]
		p := CurvePoint{Severity: s, N: len(ms)}
		for _, m := range ms {
			p.Kappa += m.Kappa
			p.Accuracy += m.Accuracy
			p.MacroF1 += m.MacroF1
		}
		n := float64(len(ms))
		p.Kappa /= n
		p.Accuracy /= n
		p.MacroF1 /= n
		out = append(out, p)
	}
	return out
}

// baselineOf computes the mean clean (severity-0, non-mixed) kappa of an
// algorithm over a record sequence, or 0 when no baseline exists.
func baselineOf(records []Record, algorithm string) float64 {
	sum, n := 0.0, 0
	for _, r := range records {
		if r.Algorithm == algorithm && r.Severity == 0 && !r.Mixed {
			sum += r.Metrics.Kappa
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// slopeOf is the least-squares slope of kappa on severity over a curve.
func slopeOf(curve []CurvePoint) float64 {
	if len(curve) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range curve {
		sx += p.Severity
		sy += p.Kappa
		sxx += p.Severity * p.Severity
		sxy += p.Severity * p.Kappa
	}
	n := float64(len(curve))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// lossAt reads the kappa loss at measured severity s off a measured-axis
// degradation curve by piecewise-linear interpolation; below the clean
// anchor the loss is zero, beyond the last point it is linearly
// extrapolated with the curve's own slope. The loss is floored at zero:
// a sampled curve can be locally non-monotone (cross-validation noise),
// but a quality defect is never credited with *improving* an algorithm —
// without the floor, predicted kappa could exceed the clean baseline,
// which reads as nonsense in the advice shown to users.
func lossAt(curve []CurvePoint, s float64) float64 {
	if len(curve) < 2 {
		return 0
	}
	anchor := curve[0].Kappa
	if s <= curve[0].Severity {
		return 0
	}
	loss := 0.0
	interpolated := false
	for i := 1; i < len(curve); i++ {
		if s <= curve[i].Severity {
			lo, hi := curve[i-1], curve[i]
			frac := 0.0
			if hi.Severity > lo.Severity {
				frac = (s - lo.Severity) / (hi.Severity - lo.Severity)
			}
			kappa := lo.Kappa + frac*(hi.Kappa-lo.Kappa)
			loss = anchor - kappa
			interpolated = true
			break
		}
	}
	if !interpolated {
		last := curve[len(curve)-1]
		loss = (anchor - last.Kappa) - (s-last.Severity)*slopeOf(curve)
	}
	if loss < 0 {
		return 0
	}
	return loss
}

// ---- Persistence ----

// Save writes the knowledge base as indented JSON.
func (k *KnowledgeBase) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(k)
}

// Load reads a knowledge base from JSON. The document must span the whole
// stream: trailing bytes after the JSON value (a truncated upload
// concatenated with an old file, an appended log line, a second document)
// are rejected with oberr.ErrBadSyntax instead of being silently ignored,
// because the bytes on disk would then diverge from the records served —
// and from what a provenance manifest was computed over.
func Load(r io.Reader) (*KnowledgeBase, error) {
	dec := json.NewDecoder(r)
	var k KnowledgeBase
	if err := dec.Decode(&k); err != nil {
		return nil, fmt.Errorf("kb: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("kb: %w", &oberr.SyntaxError{Format: "kb json", Reason: "trailing data after the JSON document"})
	}
	return &k, nil
}
