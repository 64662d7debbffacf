package main

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"openbi/internal/atomicfile"
	"openbi/internal/kb"
	"openbi/internal/provenance"
)

// cmdKB dispatches the knowledge-base utility subcommands.
func cmdKB(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("kb: usage: openbi kb <merge|verify|keygen> ...")
	}
	switch args[0] {
	case "merge":
		return cmdKBMerge(args[1:])
	case "verify":
		return cmdKBVerify(args[1:])
	case "keygen":
		return cmdKBKeygen(args[1:])
	default:
		return fmt.Errorf("kb: unknown subcommand %q (want merge, verify or keygen)", args[0])
	}
}

// cmdKBMerge recombines the shard files of one `openbi experiments -shard`
// run into a single knowledge base. The merge is deterministic and
// validated: shard files may be given in any order, but they must all
// belong to the same run and together cover every grid cell exactly once.
// The resulting kb.json is byte-identical to the monolithic run with the
// same seed; the printed sha256 makes that easy to verify across machines.
// A provenance manifest is emitted beside the output: its merkle root is
// recomputed two ways (from the per-shard trees and from the merged
// records) and the merge refuses to finish if they disagree.
func cmdKBMerge(args []string) error {
	fs := flag.NewFlagSet("kb merge", flag.ExitOnError)
	out := fs.String("out", "kb.json", "merged knowledge base output path")
	keyPath := fs.String("key", "", "ed25519 private key file to sign the manifest with (see openbi kb keygen)")
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("kb merge: no shard files given (run `openbi experiments -shard i/n` first)")
	}
	priv, err := loadSigningKey(*keyPath)
	if err != nil {
		return fmt.Errorf("kb merge: %w", err)
	}
	shards := make([]*kb.Shard, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("kb merge: %w", err)
		}
		sh, err := kb.LoadShard(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("kb merge: %s: %w", p, err)
		}
		shards = append(shards, sh)
	}
	merged, err := kb.Merge(shards...)
	if err != nil {
		return fmt.Errorf("kb merge: %w", err)
	}
	digest := sha256.New()
	var doc bytes.Buffer
	if err := atomicfile.Write(*out, 0o644, func(w *os.File) error {
		return merged.Save(io.MultiWriter(w, digest, &doc))
	}); err != nil {
		return err
	}
	m, err := kb.BuildMergedManifest(doc.Bytes(), merged, shards...)
	if err != nil {
		return fmt.Errorf("kb merge: %w", err)
	}
	if err := signAndWriteManifest(m, *out+".manifest", priv); err != nil {
		return fmt.Errorf("kb merge: %w", err)
	}
	fmt.Printf("merged %d shards (%d records) into %s\nsha256 %s\nmanifest %s (merkle root %s)\n",
		len(shards), merged.Len(), *out, hex.EncodeToString(digest.Sum(nil)),
		*out+".manifest", m.MerkleRoot)
	return nil
}

// cmdKBVerify re-derives the merkle tree from a knowledge base on disk and
// checks it against the manifest emitted when the KB was built. Any
// single-byte corruption is detected; when the damage is inside a record's
// canonical encoding, the first corrupted record is named along with its
// merkle audit path, so the bad record can be pinpointed without diffing
// the whole file.
func cmdKBVerify(args []string) error {
	fs := flag.NewFlagSet("kb verify", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "manifest to verify against (default <kb path>.manifest)")
	pubPath := fs.String("pub", "", "require the manifest to be signed by exactly this ed25519 public key file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("kb verify: usage: openbi kb verify [-manifest m] [-pub key.pub] kb.json")
	}
	path := fs.Arg(0)
	if *manifestPath == "" {
		*manifestPath = path + ".manifest"
	}

	var pub ed25519.PublicKey
	if *pubPath != "" {
		var err error
		pub, err = provenance.LoadPublicKeyFile(*pubPath)
		if err != nil {
			return fmt.Errorf("kb verify: %w", err)
		}
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("kb verify: %w", err)
	}
	m, err := provenance.LoadFile(*manifestPath)
	if err != nil {
		return fmt.Errorf("kb verify: %w", err)
	}

	// Signature policy first: a tampered manifest must not get to vouch
	// for tampered records.
	switch sigErr := m.VerifySignature(pub); {
	case sigErr == nil:
		fmt.Printf("signature: OK (key %s)\n", m.Signer())
	case errors.Is(sigErr, provenance.ErrUnsigned) && pub == nil:
		fmt.Println("signature: WARNING — manifest is unsigned; integrity only, no authenticity")
	default:
		return fmt.Errorf("kb verify: %w", sigErr)
	}

	base, err := kb.Load(bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("kb verify: %s is not a loadable knowledge base (document hash check impossible to attribute to a record): %w", path, err)
	}
	leaves, err := kb.RecordLeaves(base.Records)
	if err != nil {
		return fmt.Errorf("kb verify: %w", err)
	}
	if err := m.Verify(doc, leaves); err != nil {
		var rec *provenance.RecordMismatchError
		if errors.As(err, &rec) {
			fmt.Printf("FAIL: record %d does not match the manifest\n  want leaf %s\n  got  leaf %s\n  audit path: %s\n",
				rec.Index, rec.Want, rec.Got, strings.Join(rec.Proof, " -> "))
		}
		return fmt.Errorf("kb verify: %w", err)
	}
	fmt.Printf("OK: %d records, merkle root %s\n", m.Records, m.MerkleRoot)
	if m.DatasetHash != "" {
		fmt.Printf("dataset sha256 %s\n", m.DatasetHash)
	}
	if m.GridFingerprint != "" {
		fmt.Printf("grid fingerprint %s\n", m.GridFingerprint)
	}
	if len(m.Shards) > 0 {
		fmt.Printf("merged from %d shards\n", len(m.Shards))
	}
	return nil
}

// cmdKBKeygen writes a fresh ed25519 keypair for manifest signing. The
// private key file is created 0600; hand the public half to `openbi serve
// -manifest-pub` and `openbi kb verify -pub`.
func cmdKBKeygen(args []string) error {
	fs := flag.NewFlagSet("kb keygen", flag.ExitOnError)
	out := fs.String("out", "openbi.key", "private key output path (public key goes to <out>.pub)")
	fs.Parse(args)
	pub, priv, err := provenance.GenerateKeyPair()
	if err != nil {
		return fmt.Errorf("kb keygen: %w", err)
	}
	if err := provenance.SavePrivateKeyFile(*out, priv); err != nil {
		return fmt.Errorf("kb keygen: %w", err)
	}
	pubPath := *out + ".pub"
	if err := provenance.SavePublicKeyFile(pubPath, pub); err != nil {
		return fmt.Errorf("kb keygen: %w", err)
	}
	fmt.Printf("private key %s\npublic key  %s (%s)\n", *out, pubPath, hex.EncodeToString(pub))
	return nil
}

// loadSigningKey loads an optional ed25519 private key; "" means unsigned.
func loadSigningKey(path string) (ed25519.PrivateKey, error) {
	if path == "" {
		return nil, nil
	}
	return provenance.LoadPrivateKeyFile(path)
}

// signAndWriteManifest optionally signs m and writes it atomically.
func signAndWriteManifest(m *provenance.Manifest, path string, priv ed25519.PrivateKey) error {
	if priv != nil {
		if err := m.Sign(priv); err != nil {
			return err
		}
	}
	return atomicfile.Write(path, 0o644, func(w *os.File) error {
		return m.Save(w)
	})
}
