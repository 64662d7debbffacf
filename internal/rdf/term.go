// Package rdf implements the Linked Open Data substrate of the OpenBI
// reproduction: RDF terms and triples, an indexed in-memory triple store,
// N-Triples and Turtle (subset) parsing and serialization, link statistics,
// and the entity→table projection the paper's "LOD integration module"
// (§3.3) performs to obtain a common representation from LOD.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind distinguishes the three RDF term kinds.
type TermKind int

const (
	// IRI is an absolute IRI reference.
	IRI TermKind = iota
	// Blank is a blank node with a document-scoped label.
	Blank
	// Literal is a literal with optional language tag or datatype IRI.
	Literal
)

// Well-known datatype and vocabulary IRIs used across the package.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"

	RDFType   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSLabel = "http://www.w3.org/2000/01/rdf-schema#label"
	OWLSameAs = "http://www.w3.org/2002/07/owl#sameAs"
)

// Term is an RDF term. Terms are value types and safe to copy; two terms
// are equal iff all fields are equal, which matches RDF term equality.
type Term struct {
	Kind TermKind
	// Value is the IRI string, blank label (without "_:"), or literal
	// lexical form, according to Kind.
	Value string
	// Lang is the language tag of a language-tagged literal ("" otherwise).
	Lang string
	// Datatype is the datatype IRI of a typed literal ("" for plain/string).
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank-node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain string literal.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return NewTypedLiteral(fmt.Sprintf("%g", v), XSDDouble)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsNumericLiteral reports whether the term is a literal with a numeric
// XSD datatype.
func (t Term) IsNumericLiteral() bool {
	if t.Kind != Literal {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble:
		return true
	}
	return false
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + escapeIRI(t.Value) + ">"
	case Blank:
		return "_:" + t.Value
	default:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + escapeIRI(t.Datatype) + ">"
		}
		return s
	}
}

// LocalName returns the fragment or last path segment of an IRI term —
// the human-facing name used when projecting predicates to column names.
// For non-IRI terms it returns the raw value.
func (t Term) LocalName() string {
	if t.Kind != IRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexByte(v, '#'); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	v = strings.TrimRight(v, "/")
	if i := strings.LastIndexByte(v, '/'); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	return v
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without trailing newline).
func (tr Triple) String() string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String() + " ."
}

// escapeIRI makes an IRI safe inside <...>: characters the N-Triples
// grammar forbids there — controls, space, the bracket/quote set and '\'
// itself — become \uXXXX escapes, which the parser decodes back. Parsing
// can produce such values legitimately (a > escape decodes to '>');
// without re-escaping, writing them would tear the output line apart and
// break parse→write→parse round-trips (found by FuzzParseNTriples).
func escapeIRI(s string) string {
	needsEscape := func(r rune) bool {
		switch r {
		case '<', '>', '"', '{', '}', '|', '^', '`', '\\':
			return true
		}
		return r <= 0x20
	}
	if !strings.ContainsFunc(s, needsEscape) {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		if needsEscape(r) {
			fmt.Fprintf(&b, `\u%04X`, r)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
