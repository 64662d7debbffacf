package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openbi/internal/atomicfile"
	"openbi/internal/eval"
	"openbi/internal/kb"
	"openbi/internal/provenance"
)

// provTestKB builds a small deterministic knowledge base for manifest
// round-trips without running the experiment grid.
func provTestKB(algorithms ...string) *kb.KnowledgeBase {
	k := kb.New()
	for i, alg := range algorithms {
		base := 0.9 - 0.1*float64(i)
		k.Add(kb.Record{
			Algorithm: alg, Criterion: "clean", Severity: 0,
			MeasuredAll: map[string]float64{"label-noise": 0},
			Dataset:     "unit", Folds: 3,
			Metrics: eval.Metrics{Kappa: base, Accuracy: (base + 1) / 2},
		})
		for _, sev := range []float64{0.2, 0.4} {
			k.Add(kb.Record{
				Algorithm: alg, Criterion: "label-noise", Severity: sev,
				MeasuredSeverity: sev, Dataset: "unit", Folds: 3,
				Metrics: eval.Metrics{Kappa: base - sev, Accuracy: (base - sev + 1) / 2},
			})
		}
	}
	return k
}

// writeProvKB saves base as dir/kb.json with its manifest beside it — the
// same artifacts `openbi experiments` emits — and returns the KB path.
func writeProvKB(t *testing.T, dir string, base *kb.KnowledgeBase) string {
	t.Helper()
	path := filepath.Join(dir, "kb.json")
	var doc bytes.Buffer
	if err := atomicfile.Write(path, 0o644, func(f *os.File) error {
		return base.Save(io.MultiWriter(f, &doc))
	}); err != nil {
		t.Fatal(err)
	}
	m, err := kb.BuildManifest(doc.Bytes(), base)
	if err != nil {
		t.Fatal(err)
	}
	if err := signAndWriteManifest(m, path+".manifest", nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIKBVerify drives the verify subcommand end to end: a pristine KB
// passes (with the unsigned warning), and flipping one byte inside a
// record's encoding fails naming that record and its audit path.
func TestCLIKBVerify(t *testing.T) {
	dir := t.TempDir()
	path := writeProvKB(t, dir, provTestKB("alpha", "beta"))

	out := captureStdout(t, func() error {
		return cmdKB([]string{"verify", path})
	})
	if !strings.Contains(out, "OK:") || !strings.Contains(out, "WARNING") {
		t.Fatalf("pristine verify output:\n%s", out)
	}

	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 3 (0-based) is beta's clean record: upper-casing its algorithm
	// keeps the JSON valid but changes the canonical encoding.
	tampered := bytes.Replace(doc, []byte(`"algorithm": "beta"`), []byte(`"algorithm": "BETA"`), 1)
	if bytes.Equal(tampered, doc) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	var verifyErr error
	out = captureStdout(t, func() error {
		verifyErr = cmdKB([]string{"verify", path})
		return nil
	})
	if verifyErr == nil || !errors.Is(verifyErr, provenance.ErrMismatch) {
		t.Fatalf("tampered verify err = %v", verifyErr)
	}
	if !strings.Contains(out, "FAIL: record 3") || !strings.Contains(out, "audit path:") {
		t.Fatalf("tampered verify should name record 3 with its audit path:\n%s", out)
	}
}

// TestCLIKBVerifySigned: keygen → sign at build time → verify -pub; a
// foreign key is rejected.
func TestCLIKBVerifySigned(t *testing.T) {
	dir := t.TempDir()
	keyPath := filepath.Join(dir, "openbi.key")
	captureStdout(t, func() error {
		return cmdKB([]string{"keygen", "-out", keyPath})
	})
	priv, err := provenance.LoadPrivateKeyFile(keyPath)
	if err != nil {
		t.Fatal(err)
	}

	base := provTestKB("alpha")
	path := filepath.Join(dir, "kb.json")
	var doc bytes.Buffer
	if err := atomicfile.Write(path, 0o644, func(f *os.File) error {
		return base.Save(io.MultiWriter(f, &doc))
	}); err != nil {
		t.Fatal(err)
	}
	m, err := kb.BuildManifest(doc.Bytes(), base)
	if err != nil {
		t.Fatal(err)
	}
	if err := signAndWriteManifest(m, path+".manifest", priv); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error {
		return cmdKB([]string{"verify", "-pub", keyPath + ".pub", path})
	})
	if !strings.Contains(out, "signature: OK") {
		t.Fatalf("signed verify output:\n%s", out)
	}

	otherKey := filepath.Join(dir, "other.key")
	captureStdout(t, func() error {
		return cmdKB([]string{"keygen", "-out", otherKey})
	})
	if err := cmdKB([]string{"verify", "-pub", otherKey + ".pub", path}); err == nil {
		t.Fatal("verify against a foreign key should fail")
	}
}

// TestCLIMergeEmitsManifest: `openbi kb merge` writes <out>.manifest whose
// shard digests cover every input shard, and the merged KB verifies.
// Built on the same tiny canonical grid the shard e2e test uses — but with
// -rows 40 so it stays quick enough for the default test run.
func TestCLIMergeEmitsManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small experiment grid")
	}
	dir := t.TempDir()
	shard0 := filepath.Join(dir, "shard-0-of-2.json")
	shard1 := filepath.Join(dir, "shard-1-of-2.json")
	merged := filepath.Join(dir, "kb.json")
	canonical := []string{"-rows", "40", "-folds", "2", "-seed", "7"}

	captureStdout(t, func() error {
		return cmdExperiments(append([]string{"-shard", "0/2", "-out", shard0}, canonical...))
	})
	captureStdout(t, func() error {
		return cmdExperiments(append([]string{"-shard", "1/2", "-out", shard1}, canonical...))
	})
	out := captureStdout(t, func() error {
		return cmdKB([]string{"merge", "-out", merged, shard0, shard1})
	})
	if !strings.Contains(out, "manifest "+merged+".manifest") {
		t.Fatalf("merge should report the manifest:\n%s", out)
	}
	m, err := provenance.LoadFile(merged + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("manifest shard digests = %d, want 2", len(m.Shards))
	}
	if m.DatasetHash == "" || m.GridFingerprint == "" {
		t.Fatalf("merged manifest lacks chain fields: %+v", m)
	}
	out = captureStdout(t, func() error {
		return cmdKB([]string{"verify", merged})
	})
	if !strings.Contains(out, "merged from 2 shards") {
		t.Fatalf("verify of merged KB:\n%s", out)
	}
}
