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

// turtleLexer is the input of one tokenizeTurtleInto call.
type turtleLexer struct {
	s    string
	more bool // more input may follow s
	cut  bool // the token in progress needs bytes past the end of s
}

// has reports whether s holds a byte at j. Every lookahead goes through
// it: past the end of s, when more input may follow, it marks the token
// in progress as cut, since the missing bytes could change how it ends.
func (lx *turtleLexer) has(j int) bool {
	if j < len(lx.s) {
		return true
	}
	lx.cut = lx.cut || lx.more
	return false
}

// tokenizeTurtleInto appends the tokens of s to dst (reusing its capacity)
// with line numbers counted from line. When more is set, s is a prefix of
// the input: tokenizing stops at the first byte of a token that may go on
// past s, and stop and stopLine say where to resume once more bytes are
// buffered. Otherwise stop is len(s). With an error come the tokens before
// it, so a caller can parse the statements that precede the error first.
func tokenizeTurtleInto(dst []ttToken, s string, line int, more bool) (toks []ttToken, stop, stopLine int, err error) {
	lx := &turtleLexer{s: s, more: more}
	toks = dst
	emit := func(k ttKind, v string) { toks = append(toks, ttToken{k, v, line}) }
	i := 0
	for i < len(s) {
		start, startLine, n := i, line, len(toks)
		c := s[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for lx.has(i) && s[i] != '\n' {
				i++
			}
		case c == '<':
			j := i + 1
			for lx.has(j) && s[j] != '>' {
				j++
			}
			if j == len(s) {
				err = turtleErr(line, "unterminated IRI")
				break
			}
			emit(ttIRI, unescapeUnicode(s[i+1:j]))
			i = j + 1
		case c == '"':
			val, consumed, serr := lx.scanString(i)
			if serr != nil {
				err = turtleErr(line, "%v", serr)
				break
			}
			line += strings.Count(s[i:i+consumed], "\n")
			emit(ttString, val)
			i += consumed
		case c == '@':
			j := i + 1
			for lx.has(j) && (isAlnumByte(s[j]) || s[j] == '-') {
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
			if lx.has(i+1) && s[i+1] == '^' {
				emit(ttCaret, "")
				i += 2
			} else {
				err = turtleErr(line, "stray '^'")
			}
		case c == '.':
			// '.' may start a decimal like .5 — only when followed by a digit.
			if lx.has(i+1) && s[i+1] >= '0' && s[i+1] <= '9' {
				j, v := lx.scanNumber(i)
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
		case c == '_' && lx.has(i+1) && s[i+1] == ':':
			j := i + 2
			for lx.has(j) && isBlankLabelByte(s[j]) {
				j++
			}
			// A trailing '.' belongs to the statement terminator, not the label.
			for j > i+2 && s[j-1] == '.' {
				j--
			}
			if j == i+2 {
				err = turtleErr(line, "empty blank node label")
				break
			}
			emit(ttBlank, s[i+2:j])
			i = j
		case c == '+' || c == '-' || (c >= '0' && c <= '9'):
			j, v := lx.scanNumber(i)
			emit(ttNumber, v)
			i = j
		default:
			// Bare word: 'a', true/false, or a prefixed name.
			j := i
			for lx.has(j) && !strings.ContainsRune(" \t\r\n;,.#<>\"^@", rune(s[j])) {
				j++
			}
			// Statement-final '.' glued to a pname was excluded above; but a
			// pname may legally contain dots internally (rare) — we stop at
			// any '.', which the subset accepts.
			word := s[i:j]
			switch word {
			case "":
				err = turtleErr(line, "unexpected character %q", c)
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
					err = turtleErr(line, "unexpected token %q", word)
					break
				}
				emit(ttPName, word)
			}
			i = j
		}
		if lx.cut {
			return toks[:n], start, startLine, nil
		}
		if err != nil {
			return toks, start, startLine, err
		}
	}
	return toks, len(s), line, nil
}

// scanString scans a quoted literal starting at s[i]=='"', returning the
// unescaped value and the number of bytes consumed. Both short ("...")
// and long ("""...""") forms are handled.
func (lx *turtleLexer) scanString(i int) (string, int, error) {
	s := lx.s
	quote3 := func(k int) bool {
		return s[k] == '"' && lx.has(k+1) && s[k+1] == '"' && lx.has(k+2) && s[k+2] == '"'
	}
	long := quote3(i)
	var body strings.Builder
	j := i + 1
	if long {
		j = i + 3
	}
	for lx.has(j) {
		if long && quote3(j) {
			return body.String(), j + 3 - i, nil
		}
		if !long && s[j] == '"' {
			return body.String(), j + 1 - i, nil
		}
		if s[j] == '\\' && lx.has(j+1) {
			switch s[j+1] {
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
				body.WriteByte(s[j+1])
			}
			j += 2
			continue
		}
		if !long && s[j] == '\n' {
			return "", 0, fmt.Errorf("newline in short string literal")
		}
		body.WriteByte(s[j])
		j++
	}
	return "", 0, fmt.Errorf("unterminated string literal")
}

// scanNumber scans a numeric literal at position i and returns the end
// position and the lexical form.
func (lx *turtleLexer) scanNumber(i int) (int, string) {
	s := lx.s
	j := i
	if s[j] == '+' || s[j] == '-' {
		j++
	}
	digits := func() {
		for lx.has(j) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	digits()
	if lx.has(j) && s[j] == '.' && lx.has(j+1) && s[j+1] >= '0' && s[j+1] <= '9' {
		j++
		digits()
	}
	if lx.has(j) && (s[j] == 'e' || s[j] == 'E') {
		k := j + 1
		if lx.has(k) && (s[k] == '+' || s[k] == '-') {
			k++
		}
		if lx.has(k) && s[k] >= '0' && s[k] <= '9' {
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
	// decoder can feed the parser the complete statements of each read.
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
