package rdf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"openbi/internal/oberr"
	"openbi/internal/table"
)

// randomGraph builds a seeded random graph exercising everything the
// projection and profiling paths care about: several classes, numeric and
// nominal properties, multi-valued properties, dangling and resolvable
// links, sameAs mirrors, labels, blank nodes, colliding local names and
// escaped characters.
func randomGraph(seed int64, entities int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	typePred := NewIRI(RDFType)
	labelPred := NewIRI(RDFSLabel)
	sameAs := NewIRI(OWLSameAs)
	classes := []Term{NewIRI("http://ex.org/def/City"), NewIRI("http://ex.org/def/Region")}
	pop := NewIRI("http://ex.org/def/pop")
	name := NewIRI("http://ex.org/def/name")
	nameClash := NewIRI("http://other.org/vocab#name") // same local name
	link := NewIRI("http://ex.org/def/link")
	for i := 0; i < entities; i++ {
		s := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		if rng.Intn(10) > 0 { // some subjects stay classless
			g.Add(Triple{S: s, P: typePred, O: classes[rng.Intn(len(classes))]})
		}
		if rng.Intn(10) > 1 {
			g.Add(Triple{S: s, P: pop, O: NewTypedLiteral(strconv.Itoa(rng.Intn(100000)), XSDInteger)})
		}
		switch rng.Intn(4) {
		case 0:
			g.Add(Triple{S: s, P: name, O: NewLiteral(fmt.Sprintf("entity %d \"quoted\"", i))})
		case 1:
			g.Add(Triple{S: s, P: name, O: NewLangLiteral(fmt.Sprintf("entité\n%d", i), "fr")})
		case 2:
			g.Add(Triple{S: s, P: nameClash, O: NewLiteral(fmt.Sprintf("alt %d", i))})
		}
		for k := 0; k < rng.Intn(3); k++ { // multi-valued links, some dangling
			target := fmt.Sprintf("http://ex.org/e/%d", rng.Intn(entities*2))
			g.Add(Triple{S: s, P: link, O: NewIRI(target)})
		}
		if rng.Intn(6) == 0 {
			g.Add(Triple{S: s, P: sameAs, O: NewIRI(fmt.Sprintf("http://mirror.org/e/%d", i))})
		}
		if rng.Intn(8) == 0 {
			g.Add(Triple{S: NewBlank(fmt.Sprintf("b%d", i)), P: labelPred, O: NewLiteral("anon")})
		}
	}
	return g
}

func collectStream(t *testing.T, data []byte, format string) (*Graph, error) {
	t.Helper()
	g := NewGraph()
	err := Stream(bytes.NewReader(data), format, func(tr Triple) error {
		g.Add(tr)
		return nil
	})
	return g, err
}

func sameGraph(a, b *Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, tr := range a.Triples() {
		if !b.Has(tr) {
			return false
		}
	}
	return true
}

// TestStreamNTriplesMatchesBatch streams serialized random graphs and
// checks triple-for-triple agreement with ReadNTriples.
func TestStreamNTriplesMatchesBatch(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomGraph(seed, 40)
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatal(err)
		}
		batch, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := collectStream(t, buf.Bytes(), "nt")
		if err != nil {
			t.Fatalf("seed %d: stream failed: %v", seed, err)
		}
		if !sameGraph(batch, streamed) {
			t.Fatalf("seed %d: stream (%d) != batch (%d)", seed, streamed.Len(), batch.Len())
		}
	}
}

// TestStreamTurtleMatchesBatch checks the streaming decoder against the
// whole-document reference (readTurtleWhole) on both the Turtle writer's
// output (prefixes, ';'/',' abbreviation) and hand-written edge cases
// targeting every place a '.' is not a statement terminator.
func TestStreamTurtleMatchesBatch(t *testing.T) {
	docs := []string{
		"",
		"# only a comment\n",
		"@prefix ex: <http://ex.org/> .\nex:a ex:b ex:c .",
		"PREFIX ex: <http://ex.org/>\nex:a a ex:C .",
		"@prefix ex: <http://ex.org/> .", // trailing directive, no statement
		"<http://a> <http://b> 3.14 .",
		"<http://a> <http://b> 3. <http://a> <http://b2> .5 .", // terminator glued to a digit-less dot
		"<http://a> <http://b> _:x.y .",                        // internal dot in blank label
		"<http://a> <http://b> _:x. <http://a> <http://c> _:z .",
		"<http://a> <http://b> \"dot . inside\" .",
		"<http://a> <http://b> \"\"\"long . with\n dots .\n\"\"\" .",
		"<http://a> <http://b> \"esc \\\" . quote\" .",
		"<http://a.b/c.d> <http://p.q/r> <http://x.y/z> .", // dots inside IRIs
		"<http://a> <http://b> <http://c> . # trailing comment with . dot\n<http://a> <http://d> 1 .",
		"@base <http://base.org/> .\n</rel> <http://p> <#frag> .",
		"<http://a> <http://b> \"v\"@en-GB ; <http://c> 42, true, false .",
		"<http://a> <http://b> \"typed\"^^<http://dt.org/t> .",
		"@prefix : <http://ex.org/> .\n:a :b :c .",
		// Rejected documents: stream and reference must both reject.
		"ex:a ex:b ex:c .",                 // undeclared prefix
		"<http://a> <http://b> <http://c>", // missing final dot
		"<http://a> <http://b> 'bad' .",
		"<http://a> <http://b> \"unterminated .",
		"<http://a> <http://b> <never-closed .",
		"<http://a> .",
		". .",
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := randomGraph(seed, 25)
		var buf bytes.Buffer
		if err := WriteTurtle(&buf, g, map[string]string{"ex": "http://ex.org/def/"}); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
	for i, doc := range docs {
		ref, rerr := readTurtleWhole(doc)
		streamed, serr := collectStream(t, []byte(doc), "ttl")
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("doc %d: accept mismatch: ref err=%v, stream err=%v\ndoc: %q", i, rerr, serr, doc)
		}
		if rerr != nil {
			continue
		}
		if !sameGraph(ref, streamed) {
			t.Fatalf("doc %d: stream (%d triples) != ref (%d)\ndoc: %q", i, streamed.Len(), ref.Len(), doc)
		}
	}
}

// TestStreamTurtleSmallChunks forces one-byte reads so the tokenizer
// pauses at every byte offset, inside every kind of token.
func TestStreamTurtleSmallChunks(t *testing.T) {
	doc := "@prefix ex: <http://ex.org/> .\nex:a ex:b \"\"\"x.\"\"\", 3.5, _:l.m ; ex:c ex:d .\n"
	ref, err := readTurtleWhole(doc)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	err = StreamTurtle(&oneByteReader{data: []byte(doc)}, func(tr Triple) error {
		g.Add(tr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(ref, g) {
		t.Fatalf("one-byte-read stream diverged: %d vs %d triples", g.Len(), ref.Len())
	}
}

// oneByteReader yields one byte per Read, like iotest.OneByteReader.
type oneByteReader struct {
	data []byte
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}

// TestStreamTurtleLongToken streams one long literal through small reads.
// It must parse as in a whole-document read, and a token spanning many
// reads must not be rescanned on each of them: rescanning per read would
// allocate about 1000x the literal, while doubling the buffer before each
// rescan keeps the total to a small multiple.
func TestStreamTurtleLongToken(t *testing.T) {
	literal := strings.Repeat("x. \"\n", 1<<20) // 5 MiB: dots, quotes, newlines
	doc := "<http://a> <http://b> \"\"\"" + literal + "\"\"\" .\n"
	ref, err := readTurtleWhole(doc)
	if err != nil || ref.Len() != 1 {
		t.Fatalf("reference: %d triples, err %v", ref.Len(), err)
	}
	var got []Triple
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = StreamTurtle(&cappedReader{r: strings.NewReader(doc), max: 1024}, func(tr Triple) error {
		got = append(got, tr)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !ref.Has(got[0]) {
		t.Fatalf("streamed %d triples, want the reference's one", len(got))
	}
	if grown, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(literal)); grown > limit {
		t.Fatalf("streaming a %d-byte literal allocated %d bytes (%.1fx), limit 64x",
			len(literal), grown, float64(grown)/float64(len(literal)))
	}
}

// cappedReader returns at most max bytes per Read.
type cappedReader struct {
	r   io.Reader
	max int
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if len(p) > c.max {
		p = p[:c.max]
	}
	return c.r.Read(p)
}

// TestStreamConsumerErrorPropagates checks that a TripleFunc error stops
// the stream and comes back unwrapped (not retagged as a syntax error).
func TestStreamConsumerErrorPropagates(t *testing.T) {
	sentinel := errors.New("stop here")
	for _, tc := range []struct{ format, doc string }{
		{"nt", "<http://a> <http://b> <http://c> .\n<http://a> <http://b> <http://d> .\n"},
		{"ttl", "<http://a> <http://b> <http://c>, <http://d> ."},
	} {
		n := 0
		err := Stream(strings.NewReader(tc.doc), tc.format, func(Triple) error {
			n++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: want sentinel error back, got %v", tc.format, err)
		}
		if errors.Is(err, oberr.ErrBadSyntax) {
			t.Fatalf("%s: consumer error retagged as syntax error", tc.format)
		}
		if n != 1 {
			t.Fatalf("%s: fn called %d times after erroring, want 1", tc.format, n)
		}
	}
}

// TestStreamSyntaxErrors checks the oberr taxonomy on malformed input and
// unknown formats.
func TestStreamSyntaxErrors(t *testing.T) {
	err := Stream(strings.NewReader("not a triple\n"), "nt", func(Triple) error { return nil })
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("nt parse error should match ErrBadSyntax, got %v", err)
	}
	var se *oberr.SyntaxError
	if !errors.As(err, &se) || se.Line != 1 {
		t.Fatalf("want SyntaxError with line 1, got %#v", err)
	}
	err = Stream(strings.NewReader("# c\n\nstray ^ here"), "ttl", func(Triple) error { return nil })
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("ttl parse error should match ErrBadSyntax, got %v", err)
	}
	if !errors.As(err, &se) || se.Line != 3 {
		t.Fatalf("turtle SyntaxError should carry line 3, got %#v", se)
	}
	err = Stream(strings.NewReader(""), "json-ld", func(Triple) error { return nil })
	if !errors.Is(err, oberr.ErrUnsupportedFormat) {
		t.Fatalf("unknown format should match ErrUnsupportedFormat, got %v", err)
	}
}

// TestTurtleSyntaxErrorText pins the exact message, the ErrBadSyntax
// match and SyntaxError.Line of Turtle failures, through StreamTurtle on
// whole and one-byte reads and through ReadTurtle (line 0: the failure has
// no token to point at). Errors come out in document order: a parse error
// in an early statement wins over a tokenizer error in a later one.
func TestTurtleSyntaxErrorText(t *testing.T) {
	cases := []struct {
		doc  string
		want string
		line int
	}{
		{"@prefix ex: <http://ex.org/> .\n<http://a> <http://b> <never-closed .",
			"rdf: turtle line 2: unterminated IRI", 2},
		{"<http://a>\n<http://b> \"x\"^<http://dt> .", "rdf: turtle line 2: stray '^'", 2},
		{"<http://a> <http://b> _: .", "rdf: turtle line 1: empty blank node label", 1},
		{"@prefix ex: <http://ex.org/> .\n\nfoo:a ex:b ex:c .", `rdf: turtle line 3: undeclared prefix "foo"`, 3},
		{"<http://a> <http://b> \"line\nbreak\" .", "rdf: turtle line 1: newline in short string literal", 1},
		{"<http://a> <http://b>\n bogus .", `rdf: turtle line 2: unexpected token "bogus"`, 2},
		{"<http://a> <http://b> \"unterminated .", "rdf: turtle line 1: unterminated string literal", 1},
		{"<http://a> <http://b> <http://c>", "rdf: turtle: missing '.' at end of input", 0},
		{"@prefix <http://x> .", "rdf: turtle: @prefix expects 'name:'", 0},
		{"foo:a <http://b> <http://c> .\n<http://a> <http://b> \"x\"^<http://dt> .",
			`rdf: turtle line 1: undeclared prefix "foo"`, 1},
	}
	for _, c := range cases {
		serr := StreamTurtle(strings.NewReader(c.doc), func(Triple) error { return nil })
		berr := StreamTurtle(&oneByteReader{data: []byte(c.doc)}, func(Triple) error { return nil })
		_, rerr := ReadTurtle(strings.NewReader(c.doc))
		for _, err := range []error{serr, berr, rerr} {
			if err == nil || err.Error() != c.want {
				t.Fatalf("doc %q: err = %v, want %q", c.doc, err, c.want)
			}
			var se *oberr.SyntaxError
			if !errors.Is(err, oberr.ErrBadSyntax) || !errors.As(err, &se) || se.Line != c.line {
				t.Fatalf("doc %q: want SyntaxError on line %d, got %#v", c.doc, c.line, err)
			}
		}
	}
}

// csvBytes renders a table to CSV for byte-identity comparison.
func csvBytes(t *testing.T, tb *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamProjectMatchesProject is the projection equivalence property:
// on seeded random graphs, StreamProject over the serialized graph and
// Project over the loaded graph must both produce a table byte-identical
// (as CSV) to the resident-graph reference gather (referenceProject) —
// for explicit classes, the largest class and the all-subjects default,
// with and without the subject column and level caps.
func TestStreamProjectMatchesProject(t *testing.T) {
	optVariants := []ProjectOptions{
		{},
		{LargestClass: true},
		{Class: NewIRI("http://ex.org/def/City"), IncludeSubject: true},
		{Class: NewIRI("http://ex.org/def/Region"), MaxLevels: 4},
		{LargestClass: true, NumericThreshold: 0.5},
	}
	for seed := int64(1); seed <= 6; seed++ {
		g := randomGraph(seed, 30)
		var nt bytes.Buffer
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
		for vi, opts := range optVariants {
			refT, rerr := referenceProject(g, opts)
			streamT, serr := StreamProject(bytes.NewReader(nt.Bytes()), "nt", opts)
			graphT, gerr := Project(g, opts)
			if (rerr == nil) != (serr == nil) || (rerr == nil) != (gerr == nil) {
				t.Fatalf("seed %d variant %d: error mismatch: reference %v, stream %v, graph %v",
					seed, vi, rerr, serr, gerr)
			}
			if rerr != nil {
				continue
			}
			want := csvBytes(t, refT)
			for _, got := range []struct {
				path string
				t    *table.Table
			}{{"stream", streamT}, {"graph", graphT}} {
				if b := csvBytes(t, got.t); !bytes.Equal(b, want) {
					t.Fatalf("seed %d variant %d: %s projected CSV differs\n--- %s\n%s\n--- reference\n%s",
						seed, vi, got.path, got.path, b, want)
				}
				if got.t.Name != refT.Name {
					t.Fatalf("seed %d variant %d: %s table name %q != %q", seed, vi, got.path, got.t.Name, refT.Name)
				}
			}
		}
	}
}

// TestStreamProjectDuplicateTriples feeds raw duplicates (which a Graph
// deduplicates on load) and checks the projector's internal dedup keeps
// the outputs identical — including the #count columns.
func TestStreamProjectDuplicateTriples(t *testing.T) {
	g := randomGraph(9, 20)
	var nt bytes.Buffer
	for range 2 { // every triple twice
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatal(err)
		}
	}
	opts := ProjectOptions{LargestClass: true, IncludeSubject: true}
	refT, err := referenceProject(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamT, err := StreamProject(bytes.NewReader(nt.Bytes()), "nt", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csvBytes(t, streamT), csvBytes(t, refT); !bytes.Equal(got, want) {
		t.Fatalf("duplicated stream changed projection:\n--- stream\n%s\n--- reference\n%s", got, want)
	}
}

// TestProjectThresholdValidation pins the NumericThreshold contract: zero
// defaults to 0.9 on every entry point, anything outside (0,1] fails with
// ErrBadConfig.
func TestProjectThresholdValidation(t *testing.T) {
	g := randomGraph(3, 10)
	var nt bytes.Buffer
	if err := WriteNTriples(&nt, g); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, 1.5, 2} {
		if _, err := Project(g, ProjectOptions{NumericThreshold: bad}); !errors.Is(err, oberr.ErrBadConfig) {
			t.Fatalf("Project(threshold=%v) err = %v, want ErrBadConfig", bad, err)
		}
		if _, err := StreamProject(bytes.NewReader(nt.Bytes()), "nt", ProjectOptions{NumericThreshold: bad}); !errors.Is(err, oberr.ErrBadConfig) {
			t.Fatalf("StreamProject(threshold=%v) err = %v, want ErrBadConfig", bad, err)
		}
		if _, err := NewProjector(ProjectOptions{NumericThreshold: bad}); !errors.Is(err, oberr.ErrBadConfig) {
			t.Fatalf("NewProjector(threshold=%v) err = %v, want ErrBadConfig", bad, err)
		}
	}
	defaulted, err := Project(g, ProjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Project(g, ProjectOptions{NumericThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, defaulted), csvBytes(t, explicit)) {
		t.Fatal("zero-value NumericThreshold does not behave like the documented 0.9 default")
	}
}
