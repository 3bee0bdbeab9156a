// Package cas is the content-addressed store behind the fleet coordinator:
// uploaded designs and normalized job configurations hash to stable SHA-256
// digests, blobs live on disk under their digest with reference counts, and
// a result index maps (design digest, config digest, engine version) to the
// job that already computed that placement — so a byte-identical repeat
// submission is a cache hit instead of a recomputed placement, and many
// exploration trials on one design share a single uploaded blob.
//
// Layout under the store root (format puffer/cas/v1):
//
//	index.json             puffer/cas-index/v1: blob refcounts + result index
//	blobs/sha256-<hex>     raw blob bytes, named by their own digest
//
// Every index write is atomic (temp + fsync + rename, like the job spool),
// so a crashed coordinator reopens either the previous or the next complete
// index. Blobs are immutable once written; verification is a re-hash.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"puffer/internal/padding"
)

// Digest is a content address: "sha256-" followed by 64 lowercase hex
// digits of the SHA-256 of the content.
type Digest string

// digestHexLen is the length of the hex part of a Digest.
const digestHexLen = sha256.Size * 2

// Sum returns the digest of data.
func Sum(data []byte) Digest {
	h := sha256.Sum256(data)
	return Digest("sha256-" + hex.EncodeToString(h[:]))
}

// Valid reports whether d is syntactically a sha256 content address.
func (d Digest) Valid() bool {
	s := string(d)
	if !strings.HasPrefix(s, "sha256-") || len(s) != len("sha256-")+digestHexLen {
		return false
	}
	for _, c := range s[len("sha256-"):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Short returns a 12-hex-digit abbreviation for logs and tables.
func (d Digest) Short() string {
	s := string(d)
	if i := strings.IndexByte(s, '-'); i >= 0 && len(s) >= i+13 {
		return s[i+1 : i+13]
	}
	return s
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

// DecodeBookshelf reverses EncodeBookshelf, rejecting foreign documents.
func DecodeBookshelf(blob []byte) (map[string]string, error) {
	var db designBlob
	if err := json.Unmarshal(blob, &db); err != nil {
		return nil, fmt.Errorf("cas: decode design blob: %w", err)
	}
	if db.Format != BlobFormat {
		return nil, fmt.Errorf("cas: design blob format %q, want %q", db.Format, BlobFormat)
	}
	if len(db.Files) == 0 {
		return nil, fmt.Errorf("cas: design blob has no files")
	}
	return db.Files, nil
}

// ProfileDesignDigest is the content address of a synthetic design: the
// generator is deterministic, so (profile, scale, seed) fully identifies
// the netlist without materializing it.
func ProfileDesignDigest(profile string, scale int, seed int64) Digest {
	return Sum([]byte(fmt.Sprintf("puffer/design-profile/v1\nprofile=%s\nscale=%d\nseed=%d\n", profile, scale, seed)))
}

// Config is the normalized, result-determining part of a job submission.
// Fields that cannot change the placement result are deliberately absent:
// worker count (the engine is bit-deterministic for any worker count),
// deadlines, and cache-control/checkpoint hints. Changing any byte of any
// included field changes the digest, so stale cache hits are impossible;
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
	// Distributed marks a farm-controlled exploration (explore jobs).
	// Part of the digest so a distributed exploration and its in-process
	// twin never share a cache entry: their trial schedules agree only
	// when early stop does not perturb the scores.
	Distributed bool
	// EarlyStop marks competitive mid-flight trial cancellation
	// (nondeterministic across fleet load, so it splits the cache).
	EarlyStop bool
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
	// Mode flags append only when set, so every pre-farm digest — and its
	// golden test — is unchanged.
	if c.Distributed {
		enc += "distributed=true\n"
	}
	if c.EarlyStop {
		enc += "early_stop=true\n"
	}
	return Sum([]byte(enc)), nil
}

// CanonicalStrategy normalizes a padding.Strategy JSON document: it is
// decoded over the defaults by padding.DecodeStrategy (exactly as the job
// service does) and re-marshaled with the struct's fixed field order, so
// formatting, key order, and explicitly-spelled default values do not
// perturb the config digest. Worker-count knobs are zeroed first — the engine is
// bit-deterministic for any worker count, so parallelism must never
// split the cache.
func CanonicalStrategy(raw json.RawMessage) ([]byte, error) {
	st, err := padding.DecodeStrategy(raw)
	if err != nil {
		return nil, fmt.Errorf("cas: canonicalize strategy: %w", err)
	}
	st.Cong.Workers = 0
	st.Feat.Workers = 0
	return json.Marshal(st)
}

// ResultKey orders and joins the three coordinates of a cached result.
func ResultKey(design, config Digest, engine string) string {
	return string(design) + "|" + string(config) + "|" + engine
}

// sortDigests sorts a digest slice (for stable diagnostics output).
func sortDigests(ds []Digest) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
