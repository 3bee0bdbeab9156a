package cas

import (
	"fmt"
	"os"
	"path/filepath"

	"puffer/internal/fsx"
)

// Store is an on-disk content-addressed blob store: every blob lives under
// blobs/ named by its own digest, so the directory is its own index.
type Store struct {
	root string
}

// Open creates (if necessary) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: store directory must be set")
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

// BlobPath returns where d's bytes live (whether or not they exist yet).
func (s *Store) BlobPath(d Digest) string {
	return filepath.Join(s.root, "blobs", string(d))
}

// Put stores data under its own digest, deduplicating: a blob that already
// exists is not rewritten (existed=true). The write is atomic (temp file,
// fsync, rename), so a blob on disk is always whole.
func (s *Store) Put(data []byte) (d Digest, existed bool, err error) {
	d = Sum(data)
	if _, err := os.Stat(s.BlobPath(d)); err == nil {
		return d, true, nil
	}
	if err := fsx.AtomicWriteFile(s.BlobPath(d), data); err != nil {
		return d, false, fmt.Errorf("cas: write blob: %w", err)
	}
	return d, false, nil
}
