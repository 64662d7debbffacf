package provenance

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"openbi/internal/atomicfile"
)

// Key files are one lowercase-hex line: 64 bytes (ed25519 seed || public
// key) for private keys, 32 bytes for public keys. Plain hex keeps the
// files diff-able, curl-able and trivially generated elsewhere.

// GenerateKeyPair creates a fresh ed25519 signing key pair.
func GenerateKeyPair() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("provenance: generating key: %w", err)
	}
	return pub, priv, nil
}

// SavePrivateKeyFile writes a private key hex-encoded with owner-only
// permissions (0600), crash-safely.
func SavePrivateKeyFile(path string, priv ed25519.PrivateKey) error {
	if len(priv) != ed25519.PrivateKeySize {
		return fmt.Errorf("provenance: private key has %d bytes, want %d", len(priv), ed25519.PrivateKeySize)
	}
	return writeKeyFile(path, priv, 0o600)
}

// SavePublicKeyFile writes a public key hex-encoded (0644), crash-safely.
func SavePublicKeyFile(path string, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("provenance: public key has %d bytes, want %d", len(pub), ed25519.PublicKeySize)
	}
	return writeKeyFile(path, pub, 0o644)
}

// writeKeyFile writes one hex line crash-safely with the given mode.
func writeKeyFile(path string, key []byte, perm os.FileMode) error {
	return atomicfile.Write(path, perm, func(f *os.File) error {
		_, err := f.WriteString(hex.EncodeToString(key) + "\n")
		return err
	})
}

// readKeyFile reads one hex line of the expected byte length.
func readKeyFile(path string, wantBytes int) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("provenance: reading key %s: %w", path, err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("provenance: key %s is not hex: %w", path, err)
	}
	if len(key) != wantBytes {
		return nil, fmt.Errorf("provenance: key %s has %d bytes, want %d", path, len(key), wantBytes)
	}
	return key, nil
}

// LoadPrivateKeyFile reads a private key written by SavePrivateKeyFile.
func LoadPrivateKeyFile(path string) (ed25519.PrivateKey, error) {
	key, err := readKeyFile(path, ed25519.PrivateKeySize)
	if err != nil {
		return nil, err
	}
	return ed25519.PrivateKey(key), nil
}

// LoadPublicKeyFile reads a public key written by SavePublicKeyFile.
func LoadPublicKeyFile(path string) (ed25519.PublicKey, error) {
	key, err := readKeyFile(path, ed25519.PublicKeySize)
	if err != nil {
		return nil, err
	}
	return ed25519.PublicKey(key), nil
}
