package rdf

import (
	"fmt"
	"strconv"

	"openbi/internal/oberr"
	"openbi/internal/table"
)

// ProjectOptions controls the entity→table projection.
type ProjectOptions struct {
	// Class restricts the projection to subjects with rdf:type Class.
	// Zero-value Class (no IRI) projects every subject in the graph
	// (unless LargestClass is set).
	Class Term
	// LargestClass, when Class is unset, restricts the projection to the
	// most populous rdf:type class — the default behaviour of the
	// CLI/engine ingestion paths. A graph with no typed subjects falls
	// back to projecting every subject. Ignored when Class is set.
	LargestClass bool
	// IncludeSubject adds a leading nominal "@id" column with subject IRIs.
	IncludeSubject bool
	// NumericThreshold is the fraction of observed values that must be
	// numeric literals for a property column to be typed Numeric. The
	// zero value defaults to 0.9 at every call site (Project,
	// StreamProject, Projector); values outside (0,1] fail with
	// oberr.ErrBadConfig instead of silently misclassifying columns.
	NumericThreshold float64
	// MaxLevels drops property columns whose nominal dictionary would
	// exceed this many levels — an identifier-like property carries no
	// mining signal (default 0: keep everything).
	MaxLevels int
}

// normalize applies the documented NumericThreshold default and rejects
// out-of-range values. It is called by every projection entry point so
// the zero value means 0.9 everywhere.
func (opts *ProjectOptions) normalize() error {
	if opts.NumericThreshold == 0 {
		opts.NumericThreshold = 0.9
		return nil
	}
	if !(opts.NumericThreshold > 0 && opts.NumericThreshold <= 1) {
		return fmt.Errorf("rdf: %w", &oberr.ConfigError{
			Field:  "NumericThreshold",
			Reason: fmt.Sprintf("must be in (0,1], got %v", opts.NumericThreshold),
		})
	}
	return nil
}

// Project flattens a graph into the "common representation" table of
// §3.2.1: one row per entity (subject), one column per predicate. This is
// the LOD integration module of the paper's implementation sketch (§3.3).
//
// Multi-valued properties keep their first value and are additionally
// summarized by a "<name>#count" numeric column when any subject has more
// than one value, so the link multiplicity the paper worries about is not
// silently discarded. Numeric-literal-dominated properties become Numeric
// columns; everything else (IRIs, strings, mixed) becomes Nominal on the
// object's local name.
//
// Project is the resident-graph entry point of the streaming Projector:
// it feeds g's triples to one and returns its Table.
func Project(g *Graph, opts ProjectOptions) (*table.Table, error) {
	p, err := NewProjector(opts)
	if err != nil {
		return nil, err
	}
	for _, tr := range g.Triples() {
		p.Add(tr)
	}
	return p.Table()
}

// predGather is the per-predicate evidence the Projector collects before
// column assembly: the first value and value count per subject, plus the
// numeric vote. Slices are indexed by position in the sorted subject list.
type predGather struct {
	pred      Term
	firstVals []Term
	present   []bool
	counts    []int
	numeric   int // subjects whose first value is numeric
	observed  int // subjects carrying the predicate at all
	multi     bool
}

// errNoSubjects matches oberr.ErrTooFewRows so the serving layer maps it
// to a client error (an empty upload is the client's problem, not the
// server's).
var errNoSubjects = fmt.Errorf("rdf: projection found no subjects: %w", oberr.ErrTooFewRows)

// assembleProjection turns gathered per-predicate evidence into the final
// table: column order, name disambiguation, the numeric vote, level
// interning order and the #count columns. opts must already be
// normalized, with opts.Class resolved (zero Class means "all subjects",
// named "lod").
func assembleProjection(subjects []Term, gathers []predGather, opts ProjectOptions) (*table.Table, error) {
	name := "lod"
	if opts.Class.IsIRI() && opts.Class.Value != "" {
		name = opts.Class.LocalName()
	}
	t := table.New(name)
	if opts.IncludeSubject {
		idCol := table.NewNominalColumn("@id")
		for _, s := range subjects {
			idCol.AppendLabel(s.Value)
		}
		if err := t.AddColumn(idCol); err != nil {
			return nil, err
		}
	}

	for _, pg := range gathers {
		if pg.observed == 0 {
			continue // predicate never applies to this class
		}
		colName := pg.pred.LocalName()
		if t.ColumnIndex(colName) >= 0 {
			colName = colName + "_" + shortHash(pg.pred.Value)
		}
		if float64(pg.numeric) >= opts.NumericThreshold*float64(pg.observed) {
			col := table.NewNumericColumn(colName)
			for i := range subjects {
				if !pg.present[i] {
					col.AppendMissing()
					continue
				}
				v, err := numericValue(pg.firstVals[i])
				if err != nil {
					col.AppendMissing()
					continue
				}
				col.AppendFloat(v)
			}
			if err := t.AddColumn(col); err != nil {
				return nil, err
			}
		} else {
			col := table.NewNominalColumn(colName)
			for i := range subjects {
				if !pg.present[i] {
					col.AppendMissing()
					continue
				}
				col.AppendLabel(termCellLabel(pg.firstVals[i]))
			}
			if opts.MaxLevels > 0 && col.NumLevels() > opts.MaxLevels {
				continue // identifier-like: drop
			}
			if err := t.AddColumn(col); err != nil {
				return nil, err
			}
		}
		if pg.multi {
			cc := table.NewNumericColumn(colName + "#count")
			for i := range subjects {
				cc.AppendFloat(float64(pg.counts[i]))
			}
			if err := t.AddColumn(cc); err != nil {
				return nil, err
			}
		}
	}
	if t.NumCols() == 0 {
		return nil, fmt.Errorf("rdf: projection produced no columns")
	}
	return t, nil
}

// isNumericTerm reports whether a term projects to a number: either a
// numerically typed literal or a plain literal that parses as a float.
func isNumericTerm(t Term) bool {
	if !t.IsLiteral() {
		return false
	}
	if t.IsNumericLiteral() {
		return true
	}
	if t.Lang != "" {
		return false
	}
	_, err := strconv.ParseFloat(t.Value, 64)
	return err == nil
}

func numericValue(t Term) (float64, error) {
	return strconv.ParseFloat(t.Value, 64)
}

// termCellLabel renders a term as a nominal cell label: IRIs shorten to
// their local name (keeping the link target's identity while staying
// readable), literals keep their lexical form.
func termCellLabel(t Term) string {
	if t.IsIRI() {
		return t.LocalName()
	}
	return t.Value
}

// shortHash returns a 6-hex-digit FNV hash of s, used to disambiguate
// clashing local names from different namespaces.
func shortHash(s string) string {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return fmt.Sprintf("%06x", h&0xffffff)
}

// TableToGraph re-exports a table as LOD, implementing the paper's second
// OpenBI duty: "share the new acquired information as LOD to be reused by
// anyone" (§1(ii)). Every row becomes a subject IRI under base, every
// column a predicate under base+"def/", numeric cells become xsd:double
// literals and nominal cells plain literals. Missing cells emit nothing.
func TableToGraph(t *table.Table, base string, class string) *Graph {
	g := NewGraph()
	classTerm := NewIRI(base + "def/" + class)
	typePred := NewIRI(RDFType)
	preds := make([]Term, t.NumCols())
	for j, c := range t.Columns() {
		preds[j] = NewIRI(base + "def/" + sanitizeLocal(c.Name))
	}
	for r := 0; r < t.NumRows(); r++ {
		subj := NewIRI(fmt.Sprintf("%s%s/%d", base, class, r))
		g.Add(Triple{S: subj, P: typePred, O: classTerm})
		for j, c := range t.Columns() {
			if c.IsMissing(r) {
				continue
			}
			var obj Term
			if c.Kind == table.Numeric {
				obj = NewDouble(c.Nums[r])
			} else {
				obj = NewLiteral(c.Label(c.Cats[r]))
			}
			g.Add(Triple{S: subj, P: preds[j], O: obj})
		}
	}
	return g
}

// sanitizeLocal makes a column name safe as an IRI local part.
func sanitizeLocal(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			out = append(out, c)
		case c == ' ', c == '.', c == '/', c == '#':
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "col"
	}
	return string(out)
}
