package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"openbi/internal/dq"
	"openbi/internal/oberr"
	"openbi/internal/rdf"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// lodNT serializes a synthetic municipal LOD graph to N-Triples bytes.
func lodNT(t *testing.T, spec synth.LODSpec) (*rdf.Graph, []byte) {
	t.Helper()
	g, err := synth.MunicipalBudgetLOD(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

// TestIngestLODMatchesBatchPath: the single-pass streaming ingestion must
// reproduce exactly what the resident-graph path (load graph, MeasureLOD,
// rdf.Project with LargestClass) computes — profile equal, table
// byte-identical.
func TestIngestLODMatchesBatchPath(t *testing.T) {
	g, nt := lodNT(t, synth.LODSpec{Entities: 150, Seed: 5, Dirtiness: 0.25})

	ing, err := IngestLOD(bytes.NewReader(nt), "nt", rdf.ProjectOptions{LargestClass: true})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Profile != dq.MeasureLOD(g) {
		t.Fatalf("streamed profile %+v != batch %+v", ing.Profile, dq.MeasureLOD(g))
	}
	if ing.Triples != g.Len() {
		t.Fatalf("raw triple count %d != %d (generator emits no duplicates)", ing.Triples, g.Len())
	}
	batchT, err := rdf.Project(g, rdf.ProjectOptions{LargestClass: true})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := table.WriteCSV(&want, batchT); err != nil {
		t.Fatal(err)
	}
	if err := table.WriteCSV(&got, ing.Table); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed projection differs from batch:\n--- stream\n%s\n--- batch\n%s",
			got.String(), want.String())
	}
}

// TestIngestLODBadInput: syntax errors surface with the oberr taxonomy.
func TestIngestLODBadInput(t *testing.T) {
	_, err := IngestLOD(bytes.NewReader([]byte("this is not rdf\n")), "nt", rdf.ProjectOptions{})
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("want ErrBadSyntax, got %v", err)
	}
	_, err = IngestLOD(bytes.NewReader(nil), "parquet", rdf.ProjectOptions{})
	if !errors.Is(err, oberr.ErrUnsupportedFormat) {
		t.Fatalf("want ErrUnsupportedFormat, got %v", err)
	}
}

// TestWithLODCorpus: an RDF stream registered at New becomes a runnable
// corpus; a bad class column or bad syntax fails New eagerly.
func TestWithLODCorpus(t *testing.T) {
	_, nt := lodNT(t, synth.LODSpec{Entities: 60, Seed: 9})
	eng, err := New(
		WithSeed(1), WithFolds(2), WithAlgorithms("zero-r", "one-r"),
		WithCombos([][]dq.Criterion{{dq.Completeness, dq.Imbalance}}),
		WithLODCorpus("municipal", bytes.NewReader(nt), "nt", "fundingLevel"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Corpora(); len(got) != 1 || got[0] != "municipal" {
		t.Fatalf("Corpora() = %v", got)
	}
	rep, err := eng.RunCorpora(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1Records == 0 || rep.Phase2Records == 0 {
		t.Fatalf("LOD corpus produced an empty grid: %+v", rep)
	}
	if eng.KB().Len() != rep.Phase1Records+rep.Phase2Records {
		t.Fatalf("KB records %d != %d+%d", eng.KB().Len(), rep.Phase1Records, rep.Phase2Records)
	}

	_, err = New(WithLODCorpus("municipal", bytes.NewReader(nt), "nt", "noSuchColumn"))
	if !errors.Is(err, oberr.ErrColumnNotFound) {
		t.Fatalf("bad class column: want ErrColumnNotFound, got %v", err)
	}
	_, err = New(WithLODCorpus("junk", bytes.NewReader([]byte("junk\n")), "nt", "fundingLevel"))
	if !errors.Is(err, oberr.ErrBadSyntax) {
		t.Fatalf("bad stream: want ErrBadSyntax, got %v", err)
	}
}
