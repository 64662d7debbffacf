package rdf

import (
	"strings"
	"testing"
)

// streamEquivalence is the shared fuzz property: the streaming decoder
// must accept exactly the documents the reference parser accepts, and on
// acceptance deliver the same triple set. (On rejection the streaming
// path may have delivered a prefix of the triples before the offending
// statement — that is its documented contract — so only the verdict is
// compared.)
func streamEquivalence(t *testing.T, input string,
	ref func(string) (*Graph, error), stream func(string, TripleFunc) error) {
	t.Helper()
	rg, rerr := ref(input)
	sg := NewGraph()
	serr := stream(input, func(tr Triple) error {
		sg.Add(tr)
		return nil
	})
	if (rerr == nil) != (serr == nil) {
		t.Fatalf("accept mismatch:\nreference err: %v\nstream err:    %v\ninput: %q", rerr, serr, input)
	}
	if rerr != nil {
		return
	}
	if !sameGraph(rg, sg) {
		t.Fatalf("triple sets differ: stream %d vs reference %d\ninput: %q", sg.Len(), rg.Len(), input)
	}
}

// FuzzStreamNTriples hunts for divergence between StreamNTriples and
// ReadNTriples. ReadNTriples is built on the streaming decoder, so this
// mostly guards the delegation (graph dedup vs raw callback delivery)
// and keeps a seed corpus flowing into the shared line grammar.
func FuzzStreamNTriples(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"<http://a> <http://b> <http://c> .",
		"<http://a> <http://b> \"lit\" .\n<http://a> <http://b> \"lit\" .\n", // duplicate
		"<http://a> <http://b> \"v\"@en-GB .",
		"<http://a> <http://b> \"3.4\"^^<http://www.w3.org/2001/XMLSchema#double> .",
		"_:b1 <http://b> _:b2 .",
		"<http://a> <http://b> \"\\u00e9\\U0001F600\" .",
		"<http://a> <http://b> \"unterminated",
		"<http://a> <http://b> <http://c> . trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		streamEquivalence(t, input,
			func(s string) (*Graph, error) { return ReadNTriples(strings.NewReader(s)) },
			func(s string, fn TripleFunc) error { return StreamNTriples(strings.NewReader(s), fn) })
	})
}

// FuzzStreamTurtle checks the streaming decoder against readTurtleWhole,
// reading each input whole and one byte at a time. One-byte reads make the
// tokenizer pause at every byte offset — inside comments, IRIs, short and
// long strings, escapes, blank labels and decimals — so a token that ends
// differently when it is split across reads shows up as an accept/reject
// or triple-set mismatch.
func FuzzStreamTurtle(f *testing.F) {
	seeds := []string{
		"",
		"@prefix ex: <http://ex.org/> .\nex:a ex:b ex:c .",
		"PREFIX ex: <http://ex.org/>\nex:a a ex:C .",
		"@base <http://ex.org/> .\n</a> <b> <#c> .",
		"<http://a> <http://b> \"v\"@en ; <http://c> 42, 3.14, 1e-3, true .",
		"_:x <http://p> \"\"\"long\nstring with . dots\"\"\" .",
		"<http://a> <http://p> \"typed\"^^<http://dt> .",
		"<http://a> <http://b> .5 .",
		"<http://a> <http://b> 3. <http://a> <http://c> 4 .",
		"<http://a> <http://b> _:x.y .",
		"<http://a> <http://b> _:x. <http://a> <http://c> _:z .",
		"<http://a> <http://b> \"dot . in \\\" string\" .",
		"<http://a.b/c> <http://p> <http://x> . # comment . with dot",
		"@prefix : <http://ex.org/> .\n:a :b :c .",
		"<http://a> <http://b> 'bad quote' .",
		"<http://a> <http://b> \"\"\"unterminated long .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		streamEquivalence(t, input,
			readTurtleWhole,
			func(s string, fn TripleFunc) error { return StreamTurtle(strings.NewReader(s), fn) })
		streamEquivalence(t, input,
			readTurtleWhole,
			func(s string, fn TripleFunc) error { return StreamTurtle(&oneByteReader{data: []byte(s)}, fn) })
	})
}
