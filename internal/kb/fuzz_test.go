package kb

import (
	"bytes"
	"os"
	"testing"

	"openbi/internal/dq"
)

// FuzzLoadSnapshot throws arbitrary bytes at the path a served KB reload
// takes: Load, then Snapshot, then AdviseSeverities. None of it may panic,
// and a document Load accepts must survive Save, Load and Save again
// byte-identically, or a reloaded KB would not be the one on disk. The
// main seed is a trimmed `openbi experiments -rows 60 -folds 2 -seed 1`
// KB: two algorithms, two criteria, one Phase-2 pair.
func FuzzLoadSnapshot(f *testing.F) {
	small, err := os.ReadFile("testdata/small-kb.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		small,
		small[:len(small)/2], // truncated upload
		append(append([]byte{}, small...), "{}"...), // trailing document
		[]byte(""),
		[]byte("{}"),
		[]byte(`{"records": null}`),
		[]byte(`{"records": [{"algorithm": "x", "criterion": "clean", "severity": 0, "metrics": {"kappa": 2}}]}`),
		[]byte(`{"records": [{"algorithm": "x", "criterion": "completeness", "severity": -1, "measuredSeverity": 1e308}]}`),
		[]byte(`{"records": [{"algorithm": "", "criterion": "a+b", "mixed": true, "measuredAll": {"": -0}}]}`),
	}
	for i, s := range seeds {
		f.Add(s, uint8(i), 0.05*float64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, crit uint8, severity float64) {
		k, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		severities := make([]float64, len(dq.AllCriteria()))
		severities[int(crit)%len(severities)] = severity
		_, _ = k.Snapshot().AdviseSeverities(severities)

		var first bytes.Buffer
		if err := k.Save(&first); err != nil {
			t.Fatalf("Save of an accepted document: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load of Save's own output: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save, Load, Save changed the document:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
