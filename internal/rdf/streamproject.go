package rdf

import (
	"io"

	"openbi/internal/table"
)

// Projector is the one entity→table projection gather: feed it triples
// one at a time (its Add is a TripleFunc) and call Table once the stream
// ends. Per (subject, predicate) it keeps the first distinct value and
// the distinct-value count, in stream order — exactly what a resident,
// deduplicated graph holds — so Project over a Graph and StreamProject
// over its serialization produce byte-identical tables.
//
// Memory scales with the number of distinct (subject, predicate, object)
// combinations — the content of the projected table — not with the
// triple count: duplicate triples and repeated links cost nothing. That
// is what lets the ingestion pipeline project graphs whose serialized
// form exceeds memory.
type Projector struct {
	opts     ProjectOptions
	subs     map[Term]*subjState
	order    []Term // subjects in first-seen order (stable iteration)
	preds    map[Term]struct{}
	classCnt map[Term]int

	// class is the entity class the last Table call resolved (explicit
	// Class, or the LargestClass winner); hasClass is false when every
	// subject was projected.
	class    Term
	hasClass bool
}

// subjState is the per-subject evidence of one streaming projection.
// Predicates and objects are small linear-scanned slices rather than
// nested maps: subjects in real LOD carry a handful of predicates with
// one to a few values each, and slices keep the projector's working set
// several times below a resident Graph (maps cost hundreds of bytes per
// entry; hub subjects degrade to linear scans, never break).
type subjState struct {
	types []Term
	preds []spEntry
}

// spEntry is the per-(subject, predicate) evidence: the distinct objects
// in first-occurrence order.
type spEntry struct {
	pred Term
	objs []Term // distinct objects in first-seen order; objs[0] is the first value
}

// NewProjector validates opts (NumericThreshold defaults to 0.9, values
// outside (0,1] fail with oberr.ErrBadConfig) and returns an empty
// projector.
func NewProjector(opts ProjectOptions) (*Projector, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	return &Projector{
		opts:     opts,
		subs:     make(map[Term]*subjState),
		preds:    make(map[Term]struct{}),
		classCnt: make(map[Term]int),
	}, nil
}

// Add observes one triple. It never fails; the TripleFunc signature lets
// it plug straight into Stream.
func (p *Projector) Add(tr Triple) error {
	st := p.subs[tr.S]
	if st == nil {
		st = &subjState{}
		p.subs[tr.S] = st
		p.order = append(p.order, tr.S)
	}
	if tr.P.Kind == IRI && tr.P.Value == RDFType {
		for _, t := range st.types {
			if t == tr.O {
				return nil
			}
		}
		st.types = append(st.types, tr.O)
		p.classCnt[tr.O]++
		return nil
	}
	p.preds[tr.P] = struct{}{}
	for i := range st.preds {
		if st.preds[i].pred != tr.P {
			continue
		}
		for _, o := range st.preds[i].objs {
			if o == tr.O {
				return nil // duplicate triple
			}
		}
		st.preds[i].objs = append(st.preds[i].objs, tr.O)
		return nil
	}
	st.preds = append(st.preds, spEntry{pred: tr.P, objs: []Term{tr.O}})
	return nil
}

// Subjects returns the number of distinct subjects seen so far (a cheap
// progress indicator; the projector does not count raw triples).
func (p *Projector) Subjects() int { return len(p.subs) }

// Class returns the entity class the last Table call projected, and
// whether one was used at all (false = every subject was projected).
func (p *Projector) Class() (Term, bool) { return p.class, p.hasClass }

// Table assembles the projected table from everything Added so far,
// applying the class restriction: the explicit Class, else with
// LargestClass the most populous class (the first strict maximum in
// sorted class order), else every subject.
func (p *Projector) Table() (*table.Table, error) {
	opts := p.opts
	hasClass := opts.Class.IsIRI() && opts.Class.Value != ""
	if !hasClass && opts.LargestClass && len(p.classCnt) > 0 {
		classes := make([]Term, 0, len(p.classCnt))
		for c := range p.classCnt {
			classes = append(classes, c)
		}
		sortTerms(classes)
		bestN := -1
		for _, c := range classes {
			if n := p.classCnt[c]; n > bestN {
				opts.Class, bestN = c, n
			}
		}
		hasClass = true
	}
	p.class, p.hasClass = opts.Class, hasClass

	var subjects []Term
	for _, s := range p.order {
		if hasClass && !p.subs[s].hasType(opts.Class) {
			continue
		}
		subjects = append(subjects, s)
	}
	if len(subjects) == 0 {
		return nil, errNoSubjects
	}
	sortTerms(subjects)

	preds := make([]Term, 0, len(p.preds))
	for pr := range p.preds {
		preds = append(preds, pr)
	}
	sortTerms(preds)

	predIdx := make(map[Term]int, len(preds))
	gathers := make([]predGather, len(preds))
	for gi, pr := range preds {
		predIdx[pr] = gi
		gathers[gi] = predGather{
			pred:      pr,
			firstVals: make([]Term, len(subjects)),
			present:   make([]bool, len(subjects)),
			counts:    make([]int, len(subjects)),
		}
	}
	for i, s := range subjects {
		for _, sp := range p.subs[s].preds {
			pg := &gathers[predIdx[sp.pred]]
			pg.counts[i] = len(sp.objs)
			if len(sp.objs) > 1 {
				pg.multi = true
			}
			pg.present[i] = true
			pg.firstVals[i] = sp.objs[0]
			pg.observed++
			if isNumericTerm(sp.objs[0]) {
				pg.numeric++
			}
		}
	}
	return assembleProjection(subjects, gathers, opts)
}

func (st *subjState) hasType(class Term) bool {
	for _, t := range st.types {
		if t == class {
			return true
		}
	}
	return false
}

// StreamProject decodes RDF from r (format as in Stream) straight into a
// projected table without materializing the graph; peak memory is bounded
// by the projected content plus one statement, not the triple count.
func StreamProject(r io.Reader, format string, opts ProjectOptions) (*table.Table, error) {
	pr, err := NewProjector(opts)
	if err != nil {
		return nil, err
	}
	if err := Stream(r, format, pr.Add); err != nil {
		return nil, err
	}
	return pr.Table()
}
