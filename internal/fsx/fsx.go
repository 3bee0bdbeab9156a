// Package fsx holds the one filesystem idiom every durable store in this
// repo shares: crash-safe file replacement. The job spool, the pipeline
// checkpoints, the ECO session snapshots, and the content-addressed store
// all persist state as "temp file in the destination directory + fsync +
// rename", so a process killed mid-write leaves either the previous or the
// next complete document on disk — never a truncated one.
package fsx

import (
	"os"
	"path/filepath"
)

// AtomicWriteFile writes data to path via a temporary file in path's
// directory, fsyncs it, and renames it over path (rename is atomic within
// a filesystem). On any failure the temporary file is removed and the
// previous contents of path are untouched.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// SyncDir fsyncs the directory dir, making the entries created or renamed
// in it so far durable. AtomicWriteFile makes a file's contents durable;
// a caller whose later write must not outlive a missing entry (a record
// naming files beside it) syncs the directories holding those entries
// first.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
