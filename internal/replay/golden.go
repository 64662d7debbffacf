package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"openbi/internal/atomicfile"
	"openbi/internal/loadgen"
)

// Golden promotion pins a known-good serving behavior: the capture (by
// content hash) plus the digest of the responses a trusted build produced
// for it. `openbi replay -golden` then re-replays the pinned capture and
// fails on any digest change — the serve-traffic analogue of the
// committed KB golden hash, modeled on gert's golden-promotion phase.

// Golden is the digest file written beside a promoted capture.
type Golden struct {
	// CaptureSHA256 hashes the capture file byte-for-byte; replaying a
	// different capture against this golden is a spec mismatch, not a diff.
	CaptureSHA256 string `json:"captureSha256"`
	// Spec echoes the capture header for human inspection and a second,
	// structural line of defense.
	Spec loadgen.CaptureSpec `json:"spec"`
	// Entries is the capture's verified entry count.
	Entries int `json:"entries"`
	// ResponseSHA256 pins the normalized responses of the promoting run.
	ResponseSHA256 string `json:"responseSha256"`
	// KB pins the target generation at promotion time (informational: a
	// same-KB reload bumps the generation without changing the digest).
	KB loadgen.KBInfo `json:"kb"`
}

// GoldenName returns the digest path for a promoted capture path.
func GoldenName(capturePath string) string { return capturePath + ".golden.json" }

// hashFile returns the hex sha256 of a file's bytes.
func hashFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Promote copies the capture into dir and writes its golden digest from a
// just-finished replay report. The report must come from replaying exactly
// the capture at capturePath.
func Promote(dir, capturePath string, rep *Report) (goldenPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("replay: golden dir: %w", err)
	}
	raw, err := os.ReadFile(capturePath)
	if err != nil {
		return "", fmt.Errorf("replay: reading capture to promote: %w", err)
	}
	sum := sha256.Sum256(raw)
	pinned := filepath.Join(dir, filepath.Base(capturePath))
	if pinned != capturePath {
		if err := atomicfile.Write(pinned, 0o644, func(f *os.File) error {
			_, err := f.Write(raw)
			return err
		}); err != nil {
			return "", fmt.Errorf("replay: pinning capture: %w", err)
		}
	}
	g := Golden{
		CaptureSHA256:  hex.EncodeToString(sum[:]),
		Spec:           rep.Capture,
		Entries:        rep.Entries,
		ResponseSHA256: rep.ResponseSHA256,
		KB:             rep.TargetKB,
	}
	goldenPath = GoldenName(pinned)
	if err := atomicfile.Write(goldenPath, 0o644, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(g)
	}); err != nil {
		return "", err
	}
	return goldenPath, nil
}

// LoadGolden reads a promoted digest file.
func LoadGolden(path string) (Golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Golden{}, fmt.Errorf("replay: reading golden: %w", err)
	}
	var g Golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return Golden{}, fmt.Errorf("replay: golden %s: %w", path, err)
	}
	if g.CaptureSHA256 == "" || g.ResponseSHA256 == "" {
		return Golden{}, fmt.Errorf("replay: golden %s is missing its digests", path)
	}
	return g, nil
}

// ErrGoldenDiff reports a candidate whose responses drifted from the
// promoted digest.
var ErrGoldenDiff = errors.New("replay: responses differ from the promoted golden digest")

// VerifyCapture refuses a capture file that is not the one the golden
// pinned (checked before replaying, so a swapped capture cannot pass as
// "zero diffs against the wrong baseline").
func (g Golden) VerifyCapture(capturePath string) error {
	sum, err := hashFile(capturePath)
	if err != nil {
		return err
	}
	if sum != g.CaptureSHA256 {
		return fmt.Errorf("replay: capture %s (sha256 %.12s…) is not the promoted capture (%.12s…)",
			capturePath, sum, g.CaptureSHA256)
	}
	return nil
}

// VerifyReport checks a replay report's response digest against the
// golden's.
func (g Golden) VerifyReport(rep *Report) error {
	if rep.ResponseSHA256 != g.ResponseSHA256 {
		return fmt.Errorf("%w (got %.12s…, promoted %.12s…)", ErrGoldenDiff, rep.ResponseSHA256, g.ResponseSHA256)
	}
	return nil
}
