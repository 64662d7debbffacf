package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFailureLeavesOldBytes is the regression for the torn -out
// hole: a write that fails partway (disk full, panic-recovered
// encoder, killed encoder goroutine) must leave the previous file contents
// intact — never a prefix of the new ones — and must not litter the
// directory with temp files.
func TestWriteFailureLeavesOldBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.json")
	if err := os.WriteFile(path, []byte("old complete artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	err := Write(path, 0o644, func(f *os.File) error {
		if _, err := f.WriteString(`{"records": [truncat`); err != nil {
			return err
		}
		return fmt.Errorf("simulated mid-write failure")
	})
	if err == nil || err.Error() != "simulated mid-write failure" {
		t.Fatalf("err = %v, want the write func's failure", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old complete artifact" {
		t.Fatalf("failed write altered the target: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "kb.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp leftovers after failed write: %v", names)
	}
}

func TestWriteSuccessReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.nt")
	if err := os.WriteFile(path, []byte("previous"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, 0o644, func(f *os.File) error {
		_, err := f.WriteString("fresh bytes")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh bytes" {
		t.Fatalf("contents = %q", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("replaced file mode = %o, want 644", perm)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after success, want 1", len(entries))
	}
}
