package rdf

import (
	"fmt"

	"openbi/internal/table"
)

// Reference implementations the equivalence tests compare production code
// against. They are deliberately naive — whole-document tokenization and
// per-query scans over Graph.Triples() — so they share no buffering or
// gathering logic with the code under test.

// readTurtleWhole tokenizes the entire document in one piece, with no
// more input to follow, and parses it: the reference StreamTurtle's
// read-by-read tokenizing and parsing must agree with.
func readTurtleWhole(doc string) (*Graph, error) {
	toks, _, _, err := tokenizeTurtleInto(nil, doc, 1, false)
	if err != nil {
		return nil, fmt.Errorf("rdf: %w", err)
	}
	g := NewGraph()
	p := &turtleParser{toks: toks, prefixes: map[string]string{},
		emit: func(tr Triple) error { g.Add(tr); return nil }}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("rdf: %w", err)
	}
	return g, nil
}

// distinctSorted returns the distinct terms pick selects from the triples
// it accepts, in sortTerms order.
func distinctSorted(g *Graph, pick func(Triple) (Term, bool)) []Term {
	seen := make(map[Term]bool)
	var out []Term
	for _, tr := range g.Triples() {
		if t, ok := pick(tr); ok && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sortTerms(out)
	return out
}

func subjectsOfType(g *Graph, class Term) []Term {
	return distinctSorted(g, func(tr Triple) (Term, bool) {
		return tr.S, tr.P == NewIRI(RDFType) && tr.O == class
	})
}

func classesOf(g *Graph) []Term {
	return distinctSorted(g, func(tr Triple) (Term, bool) { return tr.O, tr.P == NewIRI(RDFType) })
}

func predicatesOf(g *Graph) []Term {
	return distinctSorted(g, func(tr Triple) (Term, bool) { return tr.P, true })
}

// propertyValues returns the objects of (subject, predicate, ?) in
// insertion order.
func propertyValues(g *Graph, subject, predicate Term) []Term {
	var out []Term
	for _, tr := range g.Triples() {
		if tr.S == subject && tr.P == predicate {
			out = append(out, tr.O)
		}
	}
	return out
}

func firstValue(g *Graph, subject, predicate Term) (Term, bool) {
	if vals := propertyValues(g, subject, predicate); len(vals) > 0 {
		return vals[0], true
	}
	return Term{}, false
}

// referenceProject is the resident-graph projection gather: resolve the
// class, then per predicate and subject look the values up in the graph.
// Only the column assembly is shared with the Projector.
func referenceProject(g *Graph, opts ProjectOptions) (*table.Table, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	hasClass := opts.Class.IsIRI() && opts.Class.Value != ""
	if !hasClass && opts.LargestClass {
		bestN := -1
		for _, c := range classesOf(g) {
			if n := len(subjectsOfType(g, c)); n > bestN {
				opts.Class, bestN, hasClass = c, n, true
			}
		}
	}
	var subjects []Term
	if hasClass {
		subjects = subjectsOfType(g, opts.Class)
	} else {
		subjects = g.Subjects()
	}
	if len(subjects) == 0 {
		return nil, errNoSubjects
	}
	var gathers []predGather
	for _, p := range predicatesOf(g) {
		if p == NewIRI(RDFType) {
			continue
		}
		pg := predGather{
			pred:      p,
			firstVals: make([]Term, len(subjects)),
			present:   make([]bool, len(subjects)),
			counts:    make([]int, len(subjects)),
		}
		for i, s := range subjects {
			vals := propertyValues(g, s, p)
			pg.counts[i] = len(vals)
			if len(vals) == 0 {
				continue
			}
			if len(vals) > 1 {
				pg.multi = true
			}
			pg.present[i] = true
			pg.firstVals[i] = vals[0]
			pg.observed++
			if isNumericTerm(vals[0]) {
				pg.numeric++
			}
		}
		gathers = append(gathers, pg)
	}
	return assembleProjection(subjects, gathers, opts)
}
