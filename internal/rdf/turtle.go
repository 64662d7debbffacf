package rdf

import (
	"fmt"
	"io"
	"strings"

	"openbi/internal/oberr"
)

// ReadTurtle parses a practical subset of Turtle into a graph (it is
// StreamTurtle loading a Graph, so parse failures match
// oberr.ErrBadSyntax):
//
//   - @prefix / PREFIX declarations and prefixed names (ex:thing)
//   - @base / BASE declarations and relative IRI resolution against it
//   - the 'a' keyword for rdf:type
//   - predicate lists (';') and object lists (',')
//   - string literals with language tags and datatypes (IRI or prefixed)
//   - numeric (integer/decimal/double) and boolean literal abbreviations
//   - blank nodes (_:label) and comments
//
// Collections and anonymous blank-node property lists are not supported —
// open-data Turtle exports in the wild virtually never use them, and the
// synthetic LOD generators in this repository do not emit them.
func ReadTurtle(r io.Reader) (*Graph, error) {
	g := NewGraph()
	err := StreamTurtle(r, func(tr Triple) error {
		g.Add(tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ttKind classifies Turtle tokens.
type ttKind int

const (
	ttIRI      ttKind = iota // <...>
	ttPName                  // prefix:local or prefix: (namespace itself)
	ttBlank                  // _:label
	ttString                 // "..." (value unescaped)
	ttLangTag                // @en
	ttCaret                  // ^^
	ttNumber                 // 42, 3.14, 1e-3
	ttBoolean                // true / false
	ttA                      // a
	ttDot                    // .
	ttSemi                   // ;
	ttComma                  // ,
	ttAtPrefix               // @prefix or PREFIX
	ttAtBase                 // @base or BASE
)

type ttToken struct {
	kind ttKind
	val  string
	line int
}

// turtleErr builds the error every Turtle tokenizer and parser failure
// returns; line is 0 when the failure has no token to point at.
func turtleErr(line int, format string, args ...any) error {
	return &oberr.SyntaxError{Format: "turtle", Line: line, Reason: fmt.Sprintf(format, args...)}
}

// tokenizeTurtleInto appends the tokens of s to dst (reusing its capacity)
// with line numbers counted from startLine, so StreamTurtle can tokenize
// one statement chunk at a time while keeping document line numbers in
// errors.
func tokenizeTurtleInto(dst []ttToken, s string, startLine int) ([]ttToken, error) {
	toks := dst
	line := startLine
	i := 0
	emit := func(k ttKind, v string) { toks = append(toks, ttToken{k, v, line}) }
	for i < len(s) {
		c := s[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case c == '<':
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return nil, turtleErr(line, "unterminated IRI")
			}
			emit(ttIRI, unescapeUnicode(s[i+1:i+j]))
			i += j + 1
		case c == '"':
			val, consumed, err := scanTurtleString(s[i:])
			if err != nil {
				return nil, turtleErr(line, "%v", err)
			}
			line += strings.Count(s[i:i+consumed], "\n")
			emit(ttString, val)
			i += consumed
		case c == '@':
			j := i + 1
			for j < len(s) && (isAlnumByte(s[j]) || s[j] == '-') {
				j++
			}
			word := s[i+1 : j]
			switch strings.ToLower(word) {
			case "prefix":
				emit(ttAtPrefix, "")
			case "base":
				emit(ttAtBase, "")
			default:
				emit(ttLangTag, word)
			}
			i = j
		case c == '^':
			if i+1 < len(s) && s[i+1] == '^' {
				emit(ttCaret, "")
				i += 2
			} else {
				return nil, turtleErr(line, "stray '^'")
			}
		case c == '.':
			// '.' may start a decimal like .5 — only when followed by a digit.
			if i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				j, v := scanTurtleNumber(s, i)
				emit(ttNumber, v)
				i = j
			} else {
				emit(ttDot, "")
				i++
			}
		case c == ';':
			emit(ttSemi, "")
			i++
		case c == ',':
			emit(ttComma, "")
			i++
		case c == '_' && i+1 < len(s) && s[i+1] == ':':
			j := i + 2
			for j < len(s) && isBlankLabelByte(s[j]) {
				j++
			}
			// A trailing '.' belongs to the statement terminator, not the label.
			for j > i+2 && s[j-1] == '.' {
				j--
			}
			if j == i+2 {
				return nil, turtleErr(line, "empty blank node label")
			}
			emit(ttBlank, s[i+2:j])
			i = j
		case c == '+' || c == '-' || (c >= '0' && c <= '9'):
			j, v := scanTurtleNumber(s, i)
			emit(ttNumber, v)
			i = j
		default:
			// Bare word: 'a', true/false, or a prefixed name.
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\r\n;,.#<>\"^@", rune(s[j])) {
				j++
			}
			// Statement-final '.' glued to a pname was excluded above; but a
			// pname may legally contain dots internally (rare) — we stop at
			// any '.', which the subset accepts.
			word := s[i:j]
			if word == "" {
				return nil, turtleErr(line, "unexpected character %q", c)
			}
			switch word {
			case "a":
				emit(ttA, "")
			case "true", "false":
				emit(ttBoolean, word)
			case "PREFIX", "prefix":
				emit(ttAtPrefix, "")
			case "BASE", "base":
				emit(ttAtBase, "")
			default:
				if !strings.Contains(word, ":") {
					return nil, turtleErr(line, "unexpected token %q", word)
				}
				emit(ttPName, word)
			}
			i = j
		}
	}
	return toks, nil
}

// scanTurtleString scans a quoted literal starting at s[0]=='"', returning
// the unescaped value and the number of bytes consumed. Both short ("...")
// and long ("""...""") forms are handled.
func scanTurtleString(s string) (string, int, error) {
	long := strings.HasPrefix(s, `"""`)
	var body strings.Builder
	i := 1
	if long {
		i = 3
	}
	for i < len(s) {
		if long && strings.HasPrefix(s[i:], `"""`) {
			return body.String(), i + 3, nil
		}
		if !long && s[i] == '"' {
			return body.String(), i + 1, nil
		}
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				body.WriteByte('\t')
			case 'n':
				body.WriteByte('\n')
			case 'r':
				body.WriteByte('\r')
			case '"':
				body.WriteByte('"')
			case '\\':
				body.WriteByte('\\')
			default:
				body.WriteByte(s[i+1])
			}
			i += 2
			continue
		}
		if !long && s[i] == '\n' {
			return "", 0, fmt.Errorf("newline in short string literal")
		}
		body.WriteByte(s[i])
		i++
	}
	return "", 0, fmt.Errorf("unterminated string literal")
}

// scanTurtleNumber scans a numeric literal at position i and returns the
// end position and the lexical form.
func scanTurtleNumber(s string, i int) (int, string) {
	j := i
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	digits := func() {
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	digits()
	if j < len(s) && s[j] == '.' && j+1 < len(s) && s[j+1] >= '0' && s[j+1] <= '9' {
		j++
		digits()
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		k := j + 1
		if k < len(s) && (s[k] == '+' || s[k] == '-') {
			k++
		}
		if k < len(s) && s[k] >= '0' && s[k] <= '9' {
			j = k
			digits()
		}
	}
	return j, s[i:j]
}

type turtleParser struct {
	toks     []ttToken
	pos      int
	prefixes map[string]string
	base     string
	// emit receives each parsed triple; a non-nil return aborts parsing.
	// Prefixes and base persist across run() calls, so the streaming
	// decoder can feed the parser one statement chunk at a time.
	emit func(Triple) error
}

func (p *turtleParser) eof() bool     { return p.pos >= len(p.toks) }
func (p *turtleParser) peek() ttToken { return p.toks[p.pos] }
func (p *turtleParser) next() ttToken { t := p.toks[p.pos]; p.pos++; return t }

// run parses every directive and statement in p.toks, emitting triples
// through p.emit.
func (p *turtleParser) run() error {
	for !p.eof() {
		t := p.peek()
		switch t.kind {
		case ttAtPrefix:
			p.next()
			if err := p.parsePrefixDecl(); err != nil {
				return err
			}
		case ttAtBase:
			p.next()
			if err := p.parseBaseDecl(); err != nil {
				return err
			}
		default:
			if err := p.parseStatement(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *turtleParser) parsePrefixDecl() error {
	if p.eof() || p.peek().kind != ttPName {
		return turtleErr(0, "@prefix expects 'name:'")
	}
	name := p.next()
	pfx := strings.TrimSuffix(name.val, ":")
	if p.eof() || p.peek().kind != ttIRI {
		return turtleErr(name.line, "@prefix %s expects an IRI", pfx)
	}
	iri := p.next()
	p.prefixes[pfx] = p.resolve(iri.val)
	// Optional '.' terminator (@prefix has it, SPARQL-style PREFIX doesn't).
	if !p.eof() && p.peek().kind == ttDot {
		p.next()
	}
	return nil
}

func (p *turtleParser) parseBaseDecl() error {
	if p.eof() || p.peek().kind != ttIRI {
		return turtleErr(0, "@base expects an IRI")
	}
	p.base = p.next().val
	if !p.eof() && p.peek().kind == ttDot {
		p.next()
	}
	return nil
}

// resolve resolves a possibly relative IRI against the current base.
func (p *turtleParser) resolve(iri string) string {
	if p.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") {
		return iri
	}
	if strings.HasPrefix(iri, "#") || !strings.HasPrefix(iri, "/") {
		return p.base + iri
	}
	return p.base + strings.TrimPrefix(iri, "/")
}

func (p *turtleParser) parseStatement() error {
	subj, err := p.parseSubject()
	if err != nil {
		return err
	}
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseObject()
			if err != nil {
				return err
			}
			if err := p.emit(Triple{S: subj, P: pred, O: obj}); err != nil {
				return err
			}
			if !p.eof() && p.peek().kind == ttComma {
				p.next()
				continue
			}
			break
		}
		if !p.eof() && p.peek().kind == ttSemi {
			p.next()
			// A ';' may be immediately followed by '.', ending the statement.
			if !p.eof() && p.peek().kind == ttDot {
				p.next()
				return nil
			}
			continue
		}
		break
	}
	if p.eof() || p.peek().kind != ttDot {
		if p.eof() {
			return turtleErr(0, "missing '.' at end of input")
		}
		return turtleErr(p.peek().line, "expected '.' after statement")
	}
	p.next()
	return nil
}

func (p *turtleParser) parseSubject() (Term, error) {
	if p.eof() {
		return Term{}, turtleErr(0, "unexpected end of input (subject)")
	}
	t := p.next()
	switch t.kind {
	case ttIRI:
		return NewIRI(p.resolve(t.val)), nil
	case ttPName:
		return p.expandPName(t)
	case ttBlank:
		return NewBlank(t.val), nil
	default:
		return Term{}, turtleErr(t.line, "invalid subject token")
	}
}

func (p *turtleParser) parsePredicate() (Term, error) {
	if p.eof() {
		return Term{}, turtleErr(0, "unexpected end of input (predicate)")
	}
	t := p.next()
	switch t.kind {
	case ttA:
		return NewIRI(RDFType), nil
	case ttIRI:
		return NewIRI(p.resolve(t.val)), nil
	case ttPName:
		return p.expandPName(t)
	default:
		return Term{}, turtleErr(t.line, "invalid predicate token")
	}
}

func (p *turtleParser) parseObject() (Term, error) {
	if p.eof() {
		return Term{}, turtleErr(0, "unexpected end of input (object)")
	}
	t := p.next()
	switch t.kind {
	case ttIRI:
		return NewIRI(p.resolve(t.val)), nil
	case ttPName:
		return p.expandPName(t)
	case ttBlank:
		return NewBlank(t.val), nil
	case ttBoolean:
		return NewTypedLiteral(t.val, XSDBoolean), nil
	case ttNumber:
		dt := XSDInteger
		if strings.ContainsAny(t.val, "eE") {
			dt = XSDDouble
		} else if strings.Contains(t.val, ".") {
			dt = XSDDecimal
		}
		return NewTypedLiteral(t.val, dt), nil
	case ttString:
		lit := Term{Kind: Literal, Value: t.val}
		if !p.eof() && p.peek().kind == ttLangTag {
			lit.Lang = p.next().val
			return lit, nil
		}
		if !p.eof() && p.peek().kind == ttCaret {
			p.next()
			if p.eof() {
				return Term{}, turtleErr(0, "missing datatype after '^^'")
			}
			dt := p.next()
			switch dt.kind {
			case ttIRI:
				lit.Datatype = p.resolve(dt.val)
			case ttPName:
				expanded, err := p.expandPName(dt)
				if err != nil {
					return Term{}, err
				}
				lit.Datatype = expanded.Value
			default:
				return Term{}, turtleErr(dt.line, "invalid datatype token")
			}
		}
		return lit, nil
	default:
		return Term{}, turtleErr(t.line, "invalid object token")
	}
}

func (p *turtleParser) expandPName(t ttToken) (Term, error) {
	idx := strings.Index(t.val, ":")
	pfx, local := t.val[:idx], t.val[idx+1:]
	ns, ok := p.prefixes[pfx]
	if !ok {
		return Term{}, turtleErr(t.line, "undeclared prefix %q", pfx)
	}
	return NewIRI(ns + local), nil
}

// WriteTurtle serializes the graph as Turtle, grouping triples by subject
// and abbreviating with ';' / ',' and the given prefix map (namespace IRI
// keyed by prefix name). Subjects are emitted in deterministic order.
func WriteTurtle(w io.Writer, g *Graph, prefixes map[string]string) error {
	// Longest-namespace-first matching for abbreviation.
	type pfx struct{ name, ns string }
	var ps []pfx
	for name, ns := range prefixes {
		ps = append(ps, pfx{name, ns})
	}
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			if len(ps[j].ns) > len(ps[i].ns) || (len(ps[j].ns) == len(ps[i].ns) && ps[j].name < ps[i].name) {
				ps[i], ps[j] = ps[j], ps[i]
			}
		}
	}
	abbrev := func(t Term) string {
		if t.Kind == IRI {
			if t.Value == RDFType {
				return "a"
			}
			for _, p := range ps {
				if strings.HasPrefix(t.Value, p.ns) {
					local := t.Value[len(p.ns):]
					if local != "" && !strings.ContainsAny(local, "/#:") {
						return p.name + ":" + local
					}
				}
			}
		}
		return t.String()
	}

	var b strings.Builder
	// Deterministic prefix header: sort by name.
	names := make([]string, 0, len(prefixes))
	for n := range prefixes {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		fmt.Fprintf(&b, "@prefix %s: <%s> .\n", n, prefixes[n])
	}
	if len(names) > 0 {
		b.WriteByte('\n')
	}

	for _, s := range g.Subjects() {
		fmt.Fprintf(&b, "%s ", abbrev(s))
		for i, idx := range g.bySubj[s] {
			if i > 0 {
				b.WriteString(" ;\n    ")
			}
			tr := g.triples[idx]
			fmt.Fprintf(&b, "%s %s", abbrev(tr.P), abbrev(tr.O))
		}
		b.WriteString(" .\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
