package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"openbi/internal/oberr"
)

// TripleFunc receives one parsed triple from a streaming decoder. A
// non-nil return stops the stream immediately and is propagated to the
// caller. Unlike ReadNTriples and ReadTurtle, which load into a
// deduplicating Graph, a TripleFunc sees every syntactic triple,
// duplicates included — consumers that need set semantics (LODSketch,
// the Projector) deduplicate themselves.
type TripleFunc func(Triple) error

// Stream decodes RDF from r in one pass, dispatching on format ("nt" /
// "n-triples" or "ttl" / "turtle"), and invokes fn for every triple. The
// decoder's memory is bounded by the longest single statement, not the
// graph: arbitrarily large documents stream at constant peak RSS. Parse
// failures match oberr.ErrBadSyntax; unknown formats match
// oberr.ErrUnsupportedFormat.
func Stream(r io.Reader, format string, fn TripleFunc) error {
	switch strings.ToLower(format) {
	case "nt", "ntriples", "n-triples":
		return StreamNTriples(r, fn)
	case "ttl", "turtle":
		return StreamTurtle(r, fn)
	default:
		return fmt.Errorf("rdf: %w",
			&oberr.UnsupportedFormatError{Input: "rdf stream", Format: format})
	}
}

// StreamNTriples parses an N-Triples document line by line, holding only
// the current line in memory, and calls fn per triple. It accepts and
// rejects exactly the documents ReadNTriples does (same line grammar) and
// yields the same triples in the same order, duplicates included.
func StreamNTriples(r io.Reader, fn TripleFunc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tr, err := parseNTriplesLine(line)
		if err != nil {
			return fmt.Errorf("rdf: %w",
				&oberr.SyntaxError{Format: "n-triples", Line: lineNo, Reason: err.Error()})
		}
		if err := fn(tr); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("rdf: reading n-triples: %w", err)
	}
	return nil
}

// StreamTurtle parses the Turtle subset documented on ReadTurtle in one
// pass, holding only the current statement in memory. The byte stream is
// sliced into chunks ending exactly at top-level statement terminators by
// a small state machine (stmtChunker) that mirrors the tokenizer's string
// / IRI / comment / blank-label lexing; each chunk is then tokenized and
// parsed, with prefix and base declarations persisting across chunks.
// Chunking never changes the verdict or the triples: the result is the
// one a whole-document tokenize and parse would give (the reference
// FuzzStreamTurtle checks against). Parse failures match
// oberr.ErrBadSyntax; on a rejected document, triples from statements
// before the offending one may already have been delivered to fn.
func StreamTurtle(r io.Reader, fn TripleFunc) error {
	p := &turtleParser{prefixes: map[string]string{}, emit: fn}
	ch := &stmtChunker{r: r}
	var toks []ttToken
	line := 1
	for {
		chunk, err := ch.next()
		if len(chunk) > 0 {
			var terr error
			toks, terr = tokenizeTurtleInto(toks[:0], string(chunk), line)
			if terr != nil {
				return fmt.Errorf("rdf: %w", terr)
			}
			line += bytes.Count(chunk, []byte{'\n'})
			p.toks, p.pos = toks, 0
			if perr := p.run(); perr != nil {
				if _, ok := perr.(*oberr.SyntaxError); ok {
					return fmt.Errorf("rdf: %w", perr)
				}
				return perr // fn's own error, unchanged
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("rdf: reading turtle: %w", err)
		}
	}
}

// stmtChunker slices a Turtle byte stream into chunks that end exactly at
// a top-level statement terminator '.', reading fixed-size blocks and
// keeping only the bytes of the statement in flight. Its state machine
// tracks the lexical contexts in which a '.' is NOT a terminator —
// comments, <IRI>s, short and long string literals (with escapes), blank
// node labels, and decimals ('.' followed by a digit) — replicating
// exactly where the tokenizer would emit a ttDot token. Chunk boundaries
// therefore always coincide with whole-document token boundaries, which
// is what makes chunked parsing equivalent to parsing the document at
// once.
type stmtChunker struct {
	r    io.Reader
	buf  []byte // unconsumed bytes of the stream
	n    int    // scan position: buf[:n] has been classified
	drop int    // bytes of buf already returned to the caller
	st   chunkState
	eof  bool
}

type chunkState int

const (
	csDefault chunkState = iota
	csComment
	csIRI
	csShort
	csShortEsc
	csLong
	csLongEsc
	csBlank
)

// next returns the next chunk of input ending right after a top-level
// '.', or the final remainder together with io.EOF. The returned slice is
// only valid until the following next call.
func (c *stmtChunker) next() ([]byte, error) {
	if c.drop > 0 {
		c.buf = append(c.buf[:0], c.buf[c.drop:]...)
		c.n -= c.drop
		c.drop = 0
	}
	for {
		if end, ok := c.scan(); ok {
			c.drop = end
			return c.buf[:end], nil
		}
		if c.eof {
			c.drop = len(c.buf)
			c.n = len(c.buf)
			return c.buf, io.EOF
		}
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// fill reads one more block from the underlying reader into buf, growing
// capacity geometrically so buffering one huge statement (a multi-MB long
// string) stays linear in its size rather than quadratic.
func (c *stmtChunker) fill() error {
	const block = 32 * 1024
	if cap(c.buf)-len(c.buf) < block {
		newCap := 2 * cap(c.buf)
		if newCap < len(c.buf)+block {
			newCap = len(c.buf) + block
		}
		grown := make([]byte, len(c.buf), newCap)
		copy(grown, c.buf)
		c.buf = grown
	}
	n, err := c.r.Read(c.buf[len(c.buf):cap(c.buf)])
	c.buf = c.buf[:len(c.buf)+n]
	if err == io.EOF {
		c.eof = true
		return nil
	}
	return err
}

// scan advances the state machine over the unclassified tail of buf. It
// returns (end, true) when a terminator '.' was found at buf[end-1], or
// (0, false) when more input is needed — either because the buffer ran
// out or because a classification (long-string open/close, decimal
// lookahead) needs bytes not yet read. At EOF missing lookahead bytes are
// treated as absent, matching how the tokenizer sees the document end.
func (c *stmtChunker) scan() (int, bool) {
	for c.n < len(c.buf) {
		b := c.buf[c.n]
		switch c.st {
		case csDefault:
			switch b {
			case '#':
				c.st = csComment
				c.n++
			case '<':
				c.st = csIRI
				c.n++
			case '"':
				if c.n+2 >= len(c.buf) && !c.eof {
					return 0, false // need lookahead to classify """ vs "
				}
				switch {
				case c.n+2 < len(c.buf) && c.buf[c.n+1] == '"' && c.buf[c.n+2] == '"':
					c.st = csLong
					c.n += 3
				case c.n+1 < len(c.buf) && c.buf[c.n+1] == '"':
					c.n += 2 // empty short string ""
				default:
					c.st = csShort
					c.n++
				}
			case '.':
				if c.n+1 >= len(c.buf) && !c.eof {
					return 0, false
				}
				if c.n+1 < len(c.buf) && c.buf[c.n+1] >= '0' && c.buf[c.n+1] <= '9' {
					c.n++ // decimal like .5 or 3.14: the '.' is part of a number
					continue
				}
				c.n++
				return c.n, true
			case '_':
				if c.n+1 >= len(c.buf) && !c.eof {
					return 0, false
				}
				if c.n+1 < len(c.buf) && c.buf[c.n+1] == ':' {
					c.st = csBlank
					c.n += 2
				} else {
					c.n++
				}
			default:
				c.n++
			}
		case csComment:
			if b == '\n' {
				c.st = csDefault
			}
			c.n++
		case csIRI:
			if b == '>' {
				c.st = csDefault
			}
			c.n++
		case csShort:
			switch b {
			case '\\':
				if c.n+1 >= len(c.buf) && !c.eof {
					return 0, false
				}
				if c.n+1 < len(c.buf) {
					c.st = csShortEsc
				}
				c.n++
			case '"':
				c.st = csDefault
				c.n++
			default:
				c.n++
			}
		case csShortEsc:
			c.st = csShort
			c.n++
		case csLong:
			switch b {
			case '"':
				if c.n+2 >= len(c.buf) && !c.eof {
					return 0, false
				}
				if c.n+2 < len(c.buf) && c.buf[c.n+1] == '"' && c.buf[c.n+2] == '"' {
					c.st = csDefault
					c.n += 3
				} else {
					c.n++
				}
			case '\\':
				if c.n+1 >= len(c.buf) && !c.eof {
					return 0, false
				}
				if c.n+1 < len(c.buf) {
					c.st = csLongEsc
				}
				c.n++
			default:
				c.n++
			}
		case csLongEsc:
			c.st = csLong
			c.n++
		case csBlank:
			switch {
			case b == '.':
				if c.n+1 >= len(c.buf) && !c.eof {
					return 0, false
				}
				if c.n+1 < len(c.buf) && isBlankLabelByte(c.buf[c.n+1]) {
					c.n++ // internal dot stays in the label (_:a.b)
					continue
				}
				// Trailing dot: the tokenizer strips it from the label and
				// re-reads it as the statement terminator.
				c.st = csDefault
				c.n++
				return c.n, true
			case isBlankLabelByte(b):
				c.n++
			default:
				c.st = csDefault // re-examine this byte in the default state
			}
		}
	}
	return 0, false
}
