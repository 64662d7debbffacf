package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/rdf"
)

// goldenIngestCSVSHA256 pins the projected table `openbi generate -kind
// municipal -n 200 -seed 42 -dirty 0.2` → `openbi ingest` must produce,
// byte for byte. It guards the whole streaming chain — decoder, class
// selection, projection, CSV writer — the way goldenKBSHA256 guards the
// experiment stack: a refactor that moves one cell breaks here instead of
// silently changing downstream mining.
const goldenIngestCSVSHA256 = "318960a607880e6a656b8fd643dd2985878f82e62e0986196a8900b398775e23"

// TestCLIIngestGolden drives the LOD path end to end through the CLI:
// generate a dirty municipal LOD export, stream-ingest it, pin the
// projected-table hash, and cross-check the streamed output against the
// batch (graph-resident) projection and profile.
func TestCLIIngestGolden(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "lod.nt")
	csv := filepath.Join(dir, "lod.csv")

	out := captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "200", "-seed", "42", "-dirty", "0.2", "-out", nt})
	})
	if !strings.Contains(out, "triples") {
		t.Fatalf("generate output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdIngest([]string{"-in", nt, "-csv", csv})
	})
	for _, want := range []string{"LOD profile", "dangling link ratio",
		"projected class <http://opendata.example.org/def/Municipality>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ingest output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenIngestCSVSHA256 {
		t.Fatalf("projected CSV drifted from the golden hash:\n got %s\nwant %s", got, goldenIngestCSVSHA256)
	}

	// The batch path must agree byte for byte: load the graph, project the
	// largest class, compare against the streamed ingest output.
	f, err := os.Open(nt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rdf.ReadNTriples(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	batchT, err := rdf.Project(g, rdf.ProjectOptions{LargestClass: true})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(nt)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := core.IngestLOD(f2, "nt", rdf.ProjectOptions{LargestClass: true})
	f2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ing.Profile != dq.MeasureLOD(g) {
		t.Fatalf("streamed profile %+v != batch %+v", ing.Profile, dq.MeasureLOD(g))
	}
	if batchT.NumRows() != ing.Table.NumRows() || batchT.NumCols() != ing.Table.NumCols() {
		t.Fatalf("stream table %dx%d != batch %dx%d",
			ing.Table.NumRows(), ing.Table.NumCols(), batchT.NumRows(), batchT.NumCols())
	}

	// Streaming from stdin ('-in -') must match the file path exactly.
	stdinCSV := filepath.Join(dir, "stdin.csv")
	src, err := os.Open(nt)
	if err != nil {
		t.Fatal(err)
	}
	oldStdin := os.Stdin
	os.Stdin = src
	_ = captureStdout(t, func() error {
		return cmdIngest([]string{"-in", "-", "-format", "nt", "-csv", stdinCSV})
	})
	os.Stdin = oldStdin
	src.Close()
	raw2, err := os.ReadFile(stdinCSV)
	if err != nil {
		t.Fatal(err)
	}
	sum2 := sha256.Sum256(raw2)
	if got := hex.EncodeToString(sum2[:]); got != goldenIngestCSVSHA256 {
		t.Fatalf("stdin ingest diverged from file ingest: %s", got)
	}
}

// TestCLIIngestCSVFailedWriteKeepsOldBytes: `ingest -csv` writes through
// atomicfile.Write, so a write that fails partway leaves the previous CSV
// intact and no temp file behind. The failure is a real EFBIG: the ingest
// runs in a child process whose file-size limit is below the projected
// CSV's size (a limit set in this process would also hit the test
// framework's own files).
func TestCLIIngestCSVFailedWriteKeepsOldBytes(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil || runtime.GOOS == "windows" {
		t.Skip("needs a POSIX sh with ulimit")
	}
	nt := filepath.Join(t.TempDir(), "lod.nt")
	captureStdout(t, func() error {
		return cmdGenerate([]string{"-kind", "municipal", "-n", "200", "-seed", "42", "-out", nt})
	})
	outDir := t.TempDir()
	csv := filepath.Join(outDir, "lod.csv")
	const old = "old,complete\n1,2\n"
	if err := os.WriteFile(csv, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	// ulimit -f counts 512- or 1024-byte blocks depending on the shell; the
	// projected CSV is tens of KiB either way.
	cmd := exec.Command(sh, "-c", `ulimit -f 4 && exec "$0" -test.run='^TestIngestHelperProcess$'`, os.Args[0])
	cmd.Env = append(os.Environ(), "OPENBI_INGEST_ARGS=-in\n"+nt+"\n-csv\n"+csv)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("ingest under a 4-block file-size limit succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "file too large") {
		t.Fatalf("ingest failed for another reason than EFBIG: %v\n%s", err, out)
	}
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Fatalf("failed write replaced the previous CSV with %d other bytes", len(got))
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp leftovers after failed write: %v", names)
	}
}

// TestIngestHelperProcess runs `openbi ingest` with the newline-separated
// arguments in OPENBI_INGEST_ARGS; it is a child process of
// TestCLIIngestCSVFailedWriteKeepsOldBytes and skips otherwise.
func TestIngestHelperProcess(t *testing.T) {
	args := os.Getenv("OPENBI_INGEST_ARGS")
	if args == "" {
		t.Skip("helper process")
	}
	if err := cmdIngest(strings.Split(args, "\n")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	os.Exit(0)
}
