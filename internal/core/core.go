// Package core wires the substrates into the OpenBI pipeline of the paper:
// ingest raw open data (CSV/XML/HTML/RDF) → build the common
// representation (CWM model) → measure and annotate data-quality criteria
// → consult the DQ4DM knowledge base for advice → mine → share the result
// back as Linked Open Data. The root package openbi re-exports this as the
// library's public API.
//
// This file holds the stateless pipeline stages (ingestion, common
// representation, controlled corruption); engine.go holds the Engine that
// composes them with a knowledge base for serving.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"openbi/internal/cwm"
	"openbi/internal/dq"
	"openbi/internal/inject"
	"openbi/internal/oberr"
	"openbi/internal/rdf"
	"openbi/internal/table"
)

// ---- Ingestion (Figure 1, phase i) ----

// IngestFile reads one open-data file into a table, dispatching on the
// extension: .csv, .xml, .html/.htm, .nt (N-Triples) and .ttl (Turtle).
// RDF inputs are streamed straight into a projection of the most frequent
// entity class; their syntax errors match oberr.ErrBadSyntax. Unknown
// extensions return an error matching oberr.ErrUnsupportedFormat.
func IngestFile(path string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", path, err)
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		return table.ReadCSV(f, table.ReadCSVOptions{HasHeader: true, Name: name})
	case ".xml":
		return table.ReadXML(f, name)
	case ".html", ".htm":
		return table.ReadHTMLTable(f, name)
	case ".nt", ".ttl":
		return rdf.StreamProject(f, ext[1:], rdf.ProjectOptions{LargestClass: true})
	default:
		return nil, fmt.Errorf("core: %w",
			&oberr.UnsupportedFormatError{Input: path, Format: filepath.Ext(path)})
	}
}

// ---- Common representation + annotation (§3.2) ----

// Model is the annotated common representation of one data source.
type Model struct {
	Catalog *cwm.Catalog
	Profile dq.Profile
}

// BuildModel profiles a source and returns the CWM catalog annotated with
// every data-quality measure (§3.2.1 + §3.2.2 in one call). classColumn
// may be "" when the source has no classification target; a non-empty
// classColumn absent from the table returns an error matching
// oberr.ErrColumnNotFound. a may be a concrete table or a zero-copy view
// (views are materialized once here).
func BuildModel(a table.Access, classColumn string) (*Model, error) {
	t := a.Materialize()
	profile, err := ProfileTable(t, classColumn, nil)
	if err != nil {
		return nil, err
	}
	catalog := cwm.CatalogFromTable(t, "openbi")
	dq.Annotate(catalog.Table(t.Name), profile)
	return &Model{Catalog: catalog, Profile: profile}, nil
}

// ProfileTable measures a source's data-quality profile with the same
// class resolution and error semantics as BuildModel, without building
// the CWM catalog. sc may be nil; servers that profile many uploads pass
// pooled scratch so steady-state measurement reuses one worker's buffers
// (see dq.MeasureWith).
func ProfileTable(a table.Access, classColumn string, sc *dq.Scratch) (dq.Profile, error) {
	t := a.Materialize()
	classIdx := -1
	if classColumn != "" {
		classIdx = t.ColumnIndex(classColumn)
		if classIdx < 0 {
			return dq.Profile{}, fmt.Errorf("core: class %w",
				&oberr.ColumnNotFoundError{Column: classColumn, Table: t.Name})
		}
	}
	return dq.MeasureWith(t, dq.MeasureOptions{ClassColumn: classIdx}, sc), nil
}

// ---- Controlled corruption (§3.1 step 1) ----

// CorruptForDemo injects the given specs — exposed so examples and the CLI
// can fabricate dirty sources without importing internal packages. t may be
// a concrete table or a zero-copy view (e.g. a Dataset's backing Access).
// A non-empty classColumn that does not exist returns an error matching
// oberr.ErrColumnNotFound instead of silently corrupting without class
// protection.
func CorruptForDemo(t table.Access, classColumn string, specs []inject.Spec, seed int64) (*table.Table, error) {
	classIdx := -1
	if classColumn != "" {
		classIdx = t.ColumnIndex(classColumn)
		if classIdx < 0 {
			// Access carries no table name; the column alone identifies the miss.
			return nil, fmt.Errorf("core: class %w",
				&oberr.ColumnNotFoundError{Column: classColumn})
		}
	}
	return inject.Apply(t, classIdx, specs, seed)
}

func sanitizeClassName(s string) string {
	if s == "" {
		return "result"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
