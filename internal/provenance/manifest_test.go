package provenance

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildFixture(t *testing.T, n int) (*Manifest, []byte, [][]byte) {
	t.Helper()
	leaves := makeLeaves(n)
	doc := []byte("{\"records\": " + strings.Repeat("x", n) + "}")
	return New(doc, leaves), doc, leaves
}

func TestManifestVerifyCleanAndDeterministic(t *testing.T) {
	m, doc, leaves := buildFixture(t, 7)
	if err := m.Verify(doc, leaves); err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	var a, b bytes.Buffer
	if err := m.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := New(doc, leaves).Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("manifest bytes are not deterministic")
	}
	back, err := Load(&a)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(doc, leaves); err != nil {
		t.Fatalf("round-tripped manifest does not verify: %v", err)
	}
}

func TestManifestNamesFirstCorruptRecord(t *testing.T) {
	m, _, leaves := buildFixture(t, 9)
	leaves[4] = append([]byte(nil), leaves[4]...)
	leaves[4][0] ^= 1
	leaves[7] = []byte("also wrong") // first mismatch must win
	err := m.VerifyLeaves(leaves)
	var rec *RecordMismatchError
	if !errors.As(err, &rec) {
		t.Fatalf("want RecordMismatchError, got %v", err)
	}
	if rec.Index != 4 {
		t.Fatalf("named record %d, want 4", rec.Index)
	}
	if !errors.Is(err, ErrMismatch) {
		t.Fatal("RecordMismatchError does not match ErrMismatch")
	}
	// The returned proof verifies the *pinned* leaf against the root: the
	// mismatch report is itself checkable.
	stored, err2 := m.storedLeafHashes()
	if err2 != nil {
		t.Fatal(err2)
	}
	tree := NewTreeFromLeafHashes(stored)
	proof, _ := tree.Proof(4)
	if !VerifyProof(tree.Root(), stored[4], 4, m.Records, proof) {
		t.Fatal("audit path of the named record does not verify")
	}
}

func TestManifestRecordCountMismatch(t *testing.T) {
	m, _, leaves := buildFixture(t, 5)
	if err := m.VerifyLeaves(leaves[:4]); !errors.Is(err, ErrMismatch) {
		t.Fatalf("removed record: %v", err)
	}
	if err := m.VerifyLeaves(append(leaves, []byte("extra"))); !errors.Is(err, ErrMismatch) {
		t.Fatalf("added record: %v", err)
	}
}

func TestManifestTamperedLeafListRejected(t *testing.T) {
	m, _, leaves := buildFixture(t, 6)
	// Re-pin leaf 2 to match a forged record: without the root check this
	// would verify.
	forged := append([]byte(nil), leaves[2]...)
	forged[0] ^= 1
	h := LeafHash(forged)
	m.LeafHashes[2] = bytesToHex(h[:])
	fake := append([][]byte{}, leaves...)
	fake[2] = forged
	err := m.VerifyLeaves(fake)
	if !errors.Is(err, ErrMismatch) || !strings.Contains(err.Error(), "root") {
		t.Fatalf("tampered leaf list: %v", err)
	}
}

func bytesToHex(b []byte) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(b))
	for _, c := range b {
		out = append(out, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return string(out)
}

func TestManifestDocumentMismatch(t *testing.T) {
	m, doc, leaves := buildFixture(t, 3)
	other := append([]byte(nil), doc...)
	other[0] ^= 1
	if err := m.Verify(other, leaves); !errors.Is(err, ErrMismatch) {
		t.Fatalf("document tamper: %v", err)
	}
}

func TestManifestSignatures(t *testing.T) {
	m, doc, leaves := buildFixture(t, 4)
	if err := m.VerifySignature(nil); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("unsigned manifest with no key: %v", err)
	}
	pub, priv, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySignature(pub); !errors.Is(err, ErrMismatch) {
		t.Fatalf("unsigned manifest with pinned key must mismatch: %v", err)
	}
	if err := m.Sign(priv); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySignature(nil); err != nil {
		t.Fatalf("embedded-key verify: %v", err)
	}
	if err := m.VerifySignature(pub); err != nil {
		t.Fatalf("pinned-key verify: %v", err)
	}
	if err := m.Verify(doc, leaves); err != nil {
		t.Fatalf("signed manifest content verify: %v", err)
	}

	// Wrong pinned key: refused even though the embedded signature is fine.
	otherPub, otherPriv, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySignature(otherPub); !errors.Is(err, ErrMismatch) {
		t.Fatalf("wrong pinned key: %v", err)
	}

	// Re-signing by an attacker key is integrity-valid but fails the pin.
	if err := m.Sign(otherPriv); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySignature(nil); err != nil {
		t.Fatalf("attacker-signed manifest should pass integrity-only: %v", err)
	}
	if err := m.VerifySignature(pub); !errors.Is(err, ErrMismatch) {
		t.Fatalf("attacker-signed manifest must fail the pinned key: %v", err)
	}

	// Any content change after signing invalidates the signature.
	if err := m.Sign(priv); err != nil {
		t.Fatal(err)
	}
	m.Records++
	if err := m.VerifySignature(pub); !errors.Is(err, ErrMismatch) {
		t.Fatalf("content tamper after signing: %v", err)
	}
}

func TestManifestLoadRejectsTrailingBytesAndBadVersion(t *testing.T) {
	m, _, _ := buildFixture(t, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), []byte("garbage")...))); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("trailing bytes: %v", err)
	}
	bad := bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 9`), 1)
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("future version: %v", err)
	}
}

func TestKeyFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pub, priv, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	privPath, pubPath := filepath.Join(dir, "sign.key"), filepath.Join(dir, "sign.pub")
	if err := SavePrivateKeyFile(privPath, priv); err != nil {
		t.Fatal(err)
	}
	if err := SavePublicKeyFile(pubPath, pub); err != nil {
		t.Fatal(err)
	}
	priv2, err := LoadPrivateKeyFile(privPath)
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := LoadPublicKeyFile(pubPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(priv, priv2) || !bytes.Equal(pub, pub2) {
		t.Fatal("key round trip changed the keys")
	}
	if _, err := LoadPublicKeyFile(privPath); err == nil {
		t.Fatal("private key accepted as public key")
	}
}

// TestKeyFileModes: a saved private key is owner-only (0600) even when it
// replaces a world-readable file; the public key stays 0644.
func TestKeyFileModes(t *testing.T) {
	dir := t.TempDir()
	pub, priv, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	privPath, pubPath := filepath.Join(dir, "sign.key"), filepath.Join(dir, "sign.pub")
	if err := os.WriteFile(privPath, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SavePrivateKeyFile(privPath, priv); err != nil {
		t.Fatal(err)
	}
	if err := SavePublicKeyFile(pubPath, pub); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]os.FileMode{privPath: 0o600, pubPath: 0o644} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != want {
			t.Fatalf("%s mode = %o, want %o", filepath.Base(path), got, want)
		}
	}
}
