package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ReadNTriples parses an N-Triples document into a new graph. Comment
// lines (#...) and blank lines are skipped. The parser is line-oriented
// and reports the offending line number on error (matching
// oberr.ErrBadSyntax, like the streaming decoder it is built on).
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	err := StreamNTriples(r, func(tr Triple) error {
		g.Add(tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// WriteNTriples serializes the graph as N-Triples in insertion order.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, tr := range g.Triples() {
		if _, err := bw.WriteString(tr.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func parseNTriplesLine(line string) (Triple, error) {
	p := &termParser{s: line}
	s, err := p.parseTerm()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	if s.IsLiteral() {
		return Triple{}, fmt.Errorf("subject must not be a literal")
	}
	p.skipWS()
	pr, err := p.parseTerm()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	if !pr.IsIRI() {
		return Triple{}, fmt.Errorf("predicate must be an IRI")
	}
	p.skipWS()
	o, err := p.parseTerm()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipWS()
	if !p.consume('.') {
		return Triple{}, fmt.Errorf("missing terminating '.'")
	}
	p.skipWS()
	if !p.eof() {
		return Triple{}, fmt.Errorf("trailing content %q", p.rest())
	}
	return Triple{S: s, P: pr, O: o}, nil
}

// termParser is the cursor-based scanner for N-Triples terms. (Turtle has
// its own tokenizer, tokenizeTurtleInto; the two share only the byte
// classes and unescapeUnicode.)
type termParser struct {
	s   string
	pos int
}

func (p *termParser) eof() bool     { return p.pos >= len(p.s) }
func (p *termParser) rest() string  { return p.s[p.pos:] }
func (p *termParser) peek() byte    { return p.s[p.pos] }
func (p *termParser) advance() byte { b := p.s[p.pos]; p.pos++; return b }

func (p *termParser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

func (p *termParser) consume(b byte) bool {
	if !p.eof() && p.peek() == b {
		p.pos++
		return true
	}
	return false
}

// parseTerm parses one IRI, blank node or literal at the cursor.
func (p *termParser) parseTerm() (Term, error) {
	if p.eof() {
		return Term{}, fmt.Errorf("unexpected end of input")
	}
	switch p.peek() {
	case '<':
		return p.parseIRI()
	case '_':
		return p.parseBlank()
	case '"':
		return p.parseLiteral()
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.peek())
	}
}

func (p *termParser) parseIRI() (Term, error) {
	if !p.consume('<') {
		return Term{}, fmt.Errorf("expected '<'")
	}
	start := p.pos
	for !p.eof() && p.peek() != '>' {
		p.pos++
	}
	if p.eof() {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.s[start:p.pos]
	p.pos++ // '>'
	return NewIRI(unescapeUnicode(iri)), nil
}

func (p *termParser) parseBlank() (Term, error) {
	if !strings.HasPrefix(p.rest(), "_:") {
		return Term{}, fmt.Errorf("expected blank node '_:'")
	}
	p.pos += 2
	start := p.pos
	for !p.eof() && isBlankLabelByte(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return NewBlank(p.s[start:p.pos]), nil
}

func (p *termParser) parseLiteral() (Term, error) {
	if !p.consume('"') {
		return Term{}, fmt.Errorf("expected '\"'")
	}
	var b strings.Builder
	for {
		if p.eof() {
			return Term{}, fmt.Errorf("unterminated literal")
		}
		c := p.advance()
		if c == '"' {
			break
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if p.eof() {
			return Term{}, fmt.Errorf("dangling escape")
		}
		e := p.advance()
		switch e {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'u', 'U':
			n := 4
			if e == 'U' {
				n = 8
			}
			if p.pos+n > len(p.s) {
				return Term{}, fmt.Errorf("truncated \\%c escape", e)
			}
			var cp rune
			for i := 0; i < n; i++ {
				d := hexVal(p.advance())
				if d < 0 {
					return Term{}, fmt.Errorf("invalid hex in \\%c escape", e)
				}
				cp = cp<<4 | rune(d)
			}
			b.WriteRune(cp)
		default:
			return Term{}, fmt.Errorf("unknown escape \\%c", e)
		}
	}
	t := Term{Kind: Literal, Value: b.String()}
	if p.consume('@') {
		start := p.pos
		for !p.eof() && (isAlnumByte(p.peek()) || p.peek() == '-') {
			p.pos++
		}
		if p.pos == start {
			return Term{}, fmt.Errorf("empty language tag")
		}
		t.Lang = p.s[start:p.pos]
		return t, nil
	}
	if strings.HasPrefix(p.rest(), "^^") {
		p.pos += 2
		dt, err := p.parseIRI()
		if err != nil {
			return Term{}, fmt.Errorf("datatype: %w", err)
		}
		t.Datatype = dt.Value
	}
	return t, nil
}

func isBlankLabelByte(b byte) bool {
	return isAlnumByte(b) || b == '_' || b == '-' || b == '.'
}

func isAlnumByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10
	}
	return -1
}

// unescapeUnicode resolves \uXXXX / \UXXXXXXXX escapes inside IRIs.
func unescapeUnicode(s string) string {
	if !strings.Contains(s, `\u`) && !strings.Contains(s, `\U`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' && i+1 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
			n := 4
			if s[i+1] == 'U' {
				n = 8
			}
			if i+2+n <= len(s) {
				var cp rune
				ok := true
				for k := 0; k < n; k++ {
					d := hexVal(s[i+2+k])
					if d < 0 {
						ok = false
						break
					}
					cp = cp<<4 | rune(d)
				}
				if ok && utf8.ValidRune(cp) {
					b.WriteRune(cp)
					i += 2 + n
					continue
				}
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}
