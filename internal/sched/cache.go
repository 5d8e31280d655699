package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"

	"odr/internal/pipeline"
)

// Cache is a store of pipeline results under one directory: each entry is
// <CellKey>.json and records the build that computed it, the SHA-256 of the
// running executable. Get serves an entry only to that same build, so a
// change to any compiled code — an algorithm under an unchanged policy
// name, the shape of pipeline.Result — misses instead of replaying old
// numbers, and a new build overwrites the entry in place. Entries are plain
// JSON, not compressed — distribution samples are stored as packed base64
// blobs that barely compress, and a cache hit's latency is the decode.
// Reads and writes are safe across concurrent workers and processes (writes
// go through a temp file + rename). A nil *Cache is valid and always
// misses, and so is a Cache whose executable could not be read.
type Cache struct {
	dir   string
	build string // "" turns the cache off
}

// OpenCache opens (creating if needed) the cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, build: executableSum()}, nil
}

// executableSum is the hex SHA-256 of the running executable, or "" when
// it cannot be read. It is hashed once per process.
var executableSum = sync.OnceValue(func() string {
	path, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
})

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// cacheEntry is the on-disk envelope.
type cacheEntry struct {
	Build  string           `json:"build"`
	Result *pipeline.Result `json:"result"`
}

// Get loads the result stored under key. ok is false on a miss; a corrupt
// artifact, or one another build wrote, is a miss, never an error.
func (c *Cache) Get(key string) (*pipeline.Result, bool) {
	if c == nil || c.build == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Build != c.build || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// Put stores r under key atomically: the entry is written to a temp file
// in the same directory and renamed into place, so concurrent readers and
// writers never observe a torn artifact.
func (c *Cache) Put(key string, r *pipeline.Result) error {
	if c == nil || c.build == "" {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	err = json.NewEncoder(tmp).Encode(cacheEntry{Build: c.build, Result: r})
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// CellKey derives the content hash for a cell: the SHA-256 of its
// PolicyKey and its pipeline.Config as JSON. Every Config field is keyed
// except the three that cannot be (json:"-"): Policy, a function the
// PolicyKey names, and the live objects Source and Trace. ok is false when
// the cell is not cacheable: no PolicyKey, or a Source or Trace — a Source
// replaces the stochastic sampler with caller state, and a Trace expects
// side effects that a cache hit would silently skip. encoding/json emits
// fields in struct order and float64s with the minimal digits that
// round-trip exactly, so equal cells hash equally across processes.
func CellKey(c Cell) (key string, ok bool) {
	cfg := c.Config
	if c.PolicyKey == "" || cfg.Source != nil || cfg.Trace != nil {
		return "", false
	}
	b, err := json.Marshal(struct {
		Policy string
		Config pipeline.Config
	}{c.PolicyKey, cfg})
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}
