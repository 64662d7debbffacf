package dq

import (
	"math"
	"strconv"
	"testing"

	"openbi/internal/rdf"
	"openbi/internal/synth"
)

func TestMeasureLODEmpty(t *testing.T) {
	p := MeasureLOD(rdf.NewGraph())
	if p.Entities != 0 || p.Triples != 0 {
		t.Fatalf("empty graph profile: %+v", p)
	}
}

func buildLODFixture() *rdf.Graph {
	g := rdf.NewGraph()
	typ := rdf.NewIRI(rdf.RDFType)
	label := rdf.NewIRI(rdf.RDFSLabel)
	cls := rdf.NewIRI("http://d/Thing")
	pop := rdf.NewIRI("http://d/pop")
	link := rdf.NewIRI("http://d/link")
	for i := 0; i < 4; i++ {
		s := rdf.NewIRI("http://e/" + string(rune('a'+i)))
		g.Add(rdf.Triple{S: s, P: typ, O: cls})
		if i < 2 {
			g.Add(rdf.Triple{S: s, P: label, O: rdf.NewLiteral("thing")})
		}
		if i < 3 { // pop present on 3 of 4 entities
			g.Add(rdf.Triple{S: s, P: pop, O: rdf.NewTypedLiteral(strconv.Itoa(i), rdf.XSDInteger)})
		}
	}
	// One resolvable link, one dangling link.
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/a"), P: link, O: rdf.NewIRI("http://e/b")})
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/b"), P: link, O: rdf.NewIRI("http://nowhere/x")})
	return g
}

func TestMeasureLODCoverage(t *testing.T) {
	p := MeasureLOD(buildLODFixture())
	if p.Entities != 4 {
		t.Fatalf("entities = %d", p.Entities)
	}
	if math.Abs(p.LabelCoverage-0.5) > 1e-12 {
		t.Fatalf("label coverage = %v, want 0.5", p.LabelCoverage)
	}
	if math.Abs(p.DanglingLinkRatio-0.5) > 1e-12 {
		t.Fatalf("dangling ratio = %v, want 0.5 (1 of 2 IRI links)", p.DanglingLinkRatio)
	}
	// pop covers 3/4, link covers 2/4 -> mean (0.75+0.5)/2 = 0.625.
	if math.Abs(p.PropertyCompleteness-0.625) > 1e-12 {
		t.Fatalf("property completeness = %v, want 0.625", p.PropertyCompleteness)
	}
	if p.SameAsRatio != 0 {
		t.Fatalf("sameAs ratio = %v", p.SameAsRatio)
	}
	if p.ClassEntropy != 1 {
		t.Fatalf("single-class entropy = %v, want 1 by convention", p.ClassEntropy)
	}
}

func TestMeasureLODDirtinessMoves(t *testing.T) {
	cleanG, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirtyG, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: 300, Seed: 1, Dirtiness: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	pc := MeasureLOD(cleanG)
	pd := MeasureLOD(dirtyG)
	if pd.PropertyCompleteness >= pc.PropertyCompleteness {
		t.Fatalf("dirtiness should reduce property completeness: %v vs %v",
			pd.PropertyCompleteness, pc.PropertyCompleteness)
	}
	if pd.SameAsRatio <= pc.SameAsRatio {
		t.Fatalf("dirtiness should add sameAs mirrors: %v vs %v",
			pd.SameAsRatio, pc.SameAsRatio)
	}
	if pc.LabelCoverage < 0.9 {
		t.Fatalf("clean label coverage = %v", pc.LabelCoverage)
	}
}

func TestMeasureLODClassEntropy(t *testing.T) {
	g := rdf.NewGraph()
	typ := rdf.NewIRI(rdf.RDFType)
	a := rdf.NewIRI("http://d/A")
	b := rdf.NewIRI("http://d/B")
	// 9 of class A, 1 of class B: low normalized entropy.
	for i := 0; i < 9; i++ {
		g.Add(rdf.Triple{S: rdf.NewIRI(rdf.RDFSLabel + string(rune('0'+i))), P: typ, O: a})
	}
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/only"), P: typ, O: b})
	p := MeasureLOD(g)
	if p.ClassEntropy > 0.6 {
		t.Fatalf("skewed class entropy = %v, want low", p.ClassEntropy)
	}
}
