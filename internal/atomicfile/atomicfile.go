// Package atomicfile is openbi's one crash-safe file writer. Every
// whole-file artifact — KB, shard, manifest, key file, replay golden, CLI
// output — is written through Write, so a kill at any instant leaves
// either the old bytes or the new ones on disk, never a prefix. Provenance
// verification relies on this: a torn kb.json beside an intact manifest
// must be impossible to produce, not merely detectable. (Append-only
// streams, such as checkpoint journals and loadgen captures, sync their own
// appends instead.)
package atomicfile

import (
	"os"
	"path/filepath"
	"runtime"
)

// Write writes path via a temp file in the same directory: write fills
// the temp file, which is fsynced, given mode perm, renamed over path,
// and the rename is made durable by fsyncing the parent directory. On any
// failure the previous contents of path are untouched and the temp file
// is removed.
func Write(path string, perm os.FileMode, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// CreateTemp uses 0600; set the requested mode explicitly so it does
	// not depend on the umask.
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it survives a crash.
// Windows cannot fsync a directory handle; there the rename is as durable
// as the filesystem makes it.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
