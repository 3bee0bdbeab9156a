// Package cas content-addresses placement inputs: uploaded designs and
// normalized job configurations hash to stable SHA-256 digests, and a
// small on-disk store keeps blobs under their own digest.
//
// No program path uses the package: its one reader is the frozen benchmark
// harness (benchmark/probes.go, its own module), which times
// EncodeBookshelf, Sum and Config.Digest as cas.digest_ms and Store.Put as
// cas.put_ms. It is held for that harness and goes with its next revision
// (ROADMAP item 9).
//
// Layout under the store root:
//
//	blobs/sha256-<hex>     raw blob bytes, named by their own digest
//
// Blobs are immutable once written; verification is a re-hash.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"puffer/internal/padding"
)

// Digest is a content address: "sha256-" followed by 64 lowercase hex
// digits of the SHA-256 of the content.
type Digest string

// Sum returns the digest of data.
func Sum(data []byte) Digest {
	h := sha256.Sum256(data)
	return Digest("sha256-" + hex.EncodeToString(h[:]))
}

// BlobFormat identifies the canonical bookshelf design blob document: the
// JSON encoding of an uploaded design, with file names as sorted object
// keys so identical uploads produce identical bytes (and so one digest).
const BlobFormat = "puffer/design-blob/v1"

// designBlob is the canonical container for an uploaded Bookshelf design.
// encoding/json marshals map keys in sorted order, which is what makes the
// encoding canonical.
type designBlob struct {
	Format string            `json:"format"`
	Files  map[string]string `json:"files"`
}

// EncodeBookshelf canonically encodes an uploaded design (file name →
// content). The same files always produce the same bytes, so Sum of the
// result is the design's content address.
func EncodeBookshelf(files map[string]string) ([]byte, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("cas: empty bookshelf upload")
	}
	return json.Marshal(designBlob{Format: BlobFormat, Files: files})
}

// Config is the normalized, result-determining part of a job submission.
// Fields that cannot change the placement result are deliberately absent:
// worker count (the engine is bit-deterministic for any worker count) and
// deadlines. Changing any byte of any included field changes the digest;
// the golden digest test locks the encoding so it can never silently
// change between releases.
type Config struct {
	// Kind is the job kind ("place" or "explore").
	Kind string
	// MaxIters caps global-placement iterations (0 = engine default).
	MaxIters int
	// Route records whether the evaluation-routing stage runs.
	Route bool
	// Budget is the exploration trial budget (explore jobs).
	Budget int
	// Seed is the generation/placement seed.
	Seed int64
	// Strategy is the raw strategy JSON of the submission (nil when the
	// job uses the default strategy). It is canonicalized — decoded onto
	// the default strategy and re-marshaled — before hashing, so two
	// spellings of the same strategy share a digest.
	Strategy json.RawMessage
}

// Digest returns the config's content address over the canonical key=value
// encoding.
func (c Config) Digest() (Digest, error) {
	strategy := "-"
	if len(c.Strategy) > 0 {
		canon, err := CanonicalStrategy(c.Strategy)
		if err != nil {
			return "", err
		}
		strategy = string(Sum(canon))
	}
	enc := fmt.Sprintf("puffer/config/v1\nkind=%s\nmax_iters=%d\nroute=%t\nbudget=%d\nseed=%d\nstrategy=%s\n",
		c.Kind, c.MaxIters, c.Route, c.Budget, c.Seed, strategy)
	return Sum([]byte(enc)), nil
}

// CanonicalStrategy normalizes a padding.Strategy JSON document: it is
// decoded over the defaults by padding.DecodeStrategy (exactly as the job
// service does) and re-marshaled with the struct's fixed field order, so
// formatting, key order, and explicitly-spelled default values do not
// perturb the config digest. Worker-count knobs are zeroed first — the
// engine is bit-deterministic for any worker count, so parallelism must
// never change the digest.
func CanonicalStrategy(raw json.RawMessage) ([]byte, error) {
	st, err := padding.DecodeStrategy(raw)
	if err != nil {
		return nil, fmt.Errorf("cas: canonicalize strategy: %w", err)
	}
	st.Cong.Workers = 0
	st.Feat.Workers = 0
	return json.Marshal(st)
}
