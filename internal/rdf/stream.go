package rdf

import (
	"bufio"
	"fmt"
	"io"
	"slices"
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
// pass, holding only the statement in flight in memory. Each round reads
// more input and tokenizes the buffered bytes; the tokenizer pauses before
// a token that may continue past them. The tokens up to the last '.' are
// then parsed, while the unfinished statement's tokens and bytes carry
// over to the next round; prefix and base declarations persist throughout.
// At end of input the rest is tokenized and parsed as a whole document
// would be, so the verdict and the triples are those of a whole-document
// tokenize and parse (FuzzStreamTurtle checks this). Parse failures match
// oberr.ErrBadSyntax and are reported in document order; on a rejected
// document, triples from statements before the offending one may already
// have been delivered to fn.
func StreamTurtle(r io.Reader, fn TripleFunc) error {
	const block = 32 * 1024
	p := &turtleParser{prefixes: map[string]string{}, emit: fn}
	var (
		buf     []byte
		toks    []ttToken
		line    = 1
		eof     bool
		stalled bool // the last round consumed no bytes
	)
	for !eof {
		// One Read; but when one token spans the whole buffer, read until
		// the buffer doubles, so such a token is rescanned O(log n) times.
		want := len(buf) + 1
		if stalled {
			want += len(buf)
		}
		for len(buf) < want && !eof {
			buf = slices.Grow(buf, block)
			n, err := r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				eof = true
			} else if err != nil {
				return fmt.Errorf("rdf: reading turtle: %w", err)
			}
		}
		carried := len(toks)
		var stop int
		var terr error
		toks, stop, line, terr = tokenizeTurtleInto(toks, string(buf), line, !eof)
		// Parse the complete statements: up to the last '.' (carried tokens
		// hold none), or everything at a clean end of input.
		n := len(toks)
		if !eof || terr != nil {
			for n > carried && toks[n-1].kind != ttDot {
				n--
			}
			if n == carried {
				n = 0
			}
		}
		p.toks, p.pos = toks[:n], 0
		if err := p.run(); err != nil {
			if _, ok := err.(*oberr.SyntaxError); ok {
				return fmt.Errorf("rdf: %w", err)
			}
			return err // fn's own error, unchanged
		}
		if terr != nil {
			return fmt.Errorf("rdf: %w", terr)
		}
		if n > 0 {
			toks = append(toks[:0], toks[n:]...)
		}
		buf = append(buf[:0], buf[stop:]...)
		stalled = stop == 0
	}
	return nil
}
