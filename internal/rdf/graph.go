package rdf

import (
	"sort"
)

// Graph is an in-memory RDF graph indexed by subject. Duplicate triples
// are stored once. Graph is not safe for concurrent mutation; concurrent
// reads are safe once loading is done.
type Graph struct {
	triples []Triple
	seen    map[Triple]int // triple -> index in triples
	bySubj  map[Term][]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		seen:   make(map[Triple]int),
		bySubj: make(map[Term][]int),
	}
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return len(g.triples) }

// Add inserts a triple; re-adding an existing triple is a no-op. It
// reports whether the triple was new.
func (g *Graph) Add(tr Triple) bool {
	if _, dup := g.seen[tr]; dup {
		return false
	}
	idx := len(g.triples)
	g.triples = append(g.triples, tr)
	g.seen[tr] = idx
	g.bySubj[tr.S] = append(g.bySubj[tr.S], idx)
	return true
}

// Has reports whether the graph contains the triple.
func (g *Graph) Has(tr Triple) bool {
	_, ok := g.seen[tr]
	return ok
}

// Triples returns all triples in insertion order. The slice is shared;
// callers must not modify it.
func (g *Graph) Triples() []Triple { return g.triples }

// Subjects returns the distinct subjects in deterministic (sorted) order.
func (g *Graph) Subjects() []Term {
	out := make([]Term, 0, len(g.bySubj))
	for t := range g.bySubj {
		out = append(out, t)
	}
	sortTerms(out)
	return out
}

// LinkStats summarizes the link structure of a graph — the "different kind
// of links among data" the paper singles out as an LOD-specific mining
// difficulty (§1).
type LinkStats struct {
	Triples        int
	Subjects       int
	Predicates     int
	Objects        int
	IRIObjectLinks int     // triples whose object is an IRI (entity-to-entity links)
	LiteralTriples int     // triples whose object is a literal
	SameAsLinks    int     // owl:sameAs triples (inter-source identity links)
	AvgOutDegree   float64 // triples per distinct subject
	MaxOutDegree   int
	AvgInDegree    float64 // IRI-object links per distinct IRI object
}

// Stats computes LinkStats over the graph.
func (g *Graph) Stats() LinkStats {
	st := LinkStats{
		Triples:  len(g.triples),
		Subjects: len(g.bySubj),
	}
	sameAs := NewIRI(OWLSameAs)
	preds := make(map[Term]struct{})
	objs := make(map[Term]struct{})
	inDeg := make(map[Term]int)
	for _, tr := range g.triples {
		preds[tr.P] = struct{}{}
		objs[tr.O] = struct{}{}
		switch {
		case tr.O.IsLiteral():
			st.LiteralTriples++
		case tr.O.IsIRI():
			st.IRIObjectLinks++
			inDeg[tr.O]++
		}
		if tr.P == sameAs {
			st.SameAsLinks++
		}
	}
	st.Predicates, st.Objects = len(preds), len(objs)
	if st.Subjects > 0 {
		st.AvgOutDegree = float64(st.Triples) / float64(st.Subjects)
	}
	for s := range g.bySubj {
		if d := len(g.bySubj[s]); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
	}
	if len(inDeg) > 0 {
		total := 0
		for _, d := range inDeg {
			total += d
		}
		st.AvgInDegree = float64(total) / float64(len(inDeg))
	}
	return st
}

func sortTerms(ts []Term) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].Kind != ts[b].Kind {
			return ts[a].Kind < ts[b].Kind
		}
		if ts[a].Value != ts[b].Value {
			return ts[a].Value < ts[b].Value
		}
		if ts[a].Lang != ts[b].Lang {
			return ts[a].Lang < ts[b].Lang
		}
		return ts[a].Datatype < ts[b].Datatype
	})
}
