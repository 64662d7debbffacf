package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"openbi/internal/atomicfile"
	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/rdf"
	"openbi/internal/report"
	"openbi/internal/table"
)

// cmdIngest streams an RDF document (file or stdin) once through the
// constant-memory LOD pipeline: graph-level quality profile + entity→table
// projection, without ever materializing the graph. It is the scalable
// counterpart of `openbi profile` for LOD inputs — the peak memory is
// bounded by the projected content plus one statement, so exports larger
// than memory ingest fine.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("in", "-", "input RDF file, or '-' to stream from stdin")
	format := fs.String("format", "", "nt | ttl (default: by file extension; nt for stdin)")
	class := fs.String("class", "", "entity class IRI to project (default: the most populous class)")
	csvOut := fs.String("csv", "", "write the projected table as CSV here")
	fs.Parse(args)

	var src io.Reader
	if *in == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	fmtName := *format
	if fmtName == "" {
		switch strings.ToLower(filepath.Ext(*in)) {
		case ".ttl":
			fmtName = "ttl"
		default:
			fmtName = "nt"
		}
	}
	opts := rdf.ProjectOptions{LargestClass: true}
	if *class != "" {
		opts = rdf.ProjectOptions{Class: rdf.NewIRI(*class)}
	}

	ing, err := core.IngestLOD(src, fmtName, opts)
	if err != nil {
		return err
	}
	printLODProfile(ing.Profile)
	if ing.Class != "" {
		fmt.Printf("projected class <%s>: %d rows × %d columns (from %d streamed triples)\n",
			ing.Class, ing.Table.NumRows(), ing.Table.NumCols(), ing.Triples)
	} else {
		fmt.Printf("projected every subject (graph has no typed entities): %d rows × %d columns (from %d streamed triples)\n",
			ing.Table.NumRows(), ing.Table.NumCols(), ing.Triples)
	}

	if *csvOut != "" {
		if err := atomicfile.Write(*csvOut, 0o644, func(f *os.File) error {
			return table.WriteCSV(f, ing.Table)
		}); err != nil {
			return err
		}
		fmt.Printf("projected table written to %s\n", *csvOut)
	}
	return nil
}

// printLODProfile renders the graph-level quality table (shared with
// `openbi profile` on RDF inputs).
func printLODProfile(lp dq.LODProfile) {
	lt := report.NewTable(fmt.Sprintf("LOD profile (%d triples, %d entities)", lp.Triples, lp.Entities),
		"criterion", "value")
	lt.AddRowf("property completeness", lp.PropertyCompleteness)
	lt.AddRowf("dangling link ratio", lp.DanglingLinkRatio)
	lt.AddRowf("sameAs per entity", lp.SameAsRatio)
	lt.AddRowf("label coverage", lp.LabelCoverage)
	lt.AddRowf("predicates per class", lp.PredicatesPerClass)
	lt.AddRowf("class entropy", lp.ClassEntropy)
	lt.Render(os.Stdout)
}
