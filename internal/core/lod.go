package core

import (
	"io"

	"openbi/internal/dq"
	"openbi/internal/rdf"
	"openbi/internal/table"
)

// LODIngest is the result of one streaming RDF ingestion: the projected
// common-representation table and the graph-level quality profile, both
// computed from a single decoder pass over the document.
type LODIngest struct {
	// Table is the entity→table projection (identical, byte for byte, to
	// rdf.Project over the loaded graph).
	Table *table.Table
	// Profile is the graph-level quality profile (identical to
	// dq.MeasureLOD over the loaded graph).
	Profile dq.LODProfile
	// Class is the IRI of the projected entity class — the explicit
	// opts.Class or the LargestClass winner; "" when every subject was
	// projected (Table.Name is "lod" in that case).
	Class string
	// Triples counts the raw triples streamed, duplicates included.
	Triples int
}

// IngestLOD streams an RDF document (format "nt" or "ttl", as in
// rdf.Stream) exactly once, feeding the data-quality sketch and the table
// projector from the same decoder pass — no indexed graph is ever
// resident. The decoder itself runs at constant memory (bounded by the
// longest statement); the sketch and projector retain only distinct
// content, so peak memory scales with the graph's distinct triples and
// projected entities, not with the raw stream: duplicate triples,
// repeated links and multi-portal re-exports cost nothing, and the
// working set stays well below the batch path's indexed graph (see
// BenchmarkIngestLOD). Zero-value opts project every subject; set
// opts.LargestClass or opts.Class to restrict (IngestFile's historical
// behaviour is LargestClass).
func IngestLOD(r io.Reader, format string, opts rdf.ProjectOptions) (*LODIngest, error) {
	sk := dq.NewLODSketch()
	proj, err := rdf.NewProjector(opts)
	if err != nil {
		return nil, err
	}
	n := 0
	err = rdf.Stream(r, format, func(tr rdf.Triple) error {
		n++
		sk.Add(tr)
		return proj.Add(tr)
	})
	if err != nil {
		return nil, err
	}
	t, err := proj.Table()
	if err != nil {
		return nil, err
	}
	ing := &LODIngest{Table: t, Profile: sk.Profile(), Triples: n}
	if cls, ok := proj.Class(); ok {
		ing.Class = cls.Value
	}
	return ing, nil
}
