package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"odr/internal/netsim"
	"odr/internal/pipeline"
	"odr/internal/workload"
)

// cacheSchema versions both the key derivation and the stored encoding.
// Bump it whenever pipeline.Result, metrics.Dist's JSON form, or the key
// material changes shape, so stale artifacts miss instead of decoding into
// the wrong struct — and whenever a policy's algorithm changes under an
// unchanged PolicyKey, so no cell replays numbers the old algorithm computed
// (2: ODR renders through core.RenderClock and Result gains ExtraFPS; 3:
// Interval does too, on a grid anchored at time zero; 4: PolicyKey becomes
// the cell's label, see Cell; 5: pipeline.Config drops Warmup,
// RawFrameBytes, RefreshHz, MemConfig and PowerConfig, so the key material
// loses them).
const cacheSchema = 5

// Cache is a content-addressed store of pipeline results under one
// directory: each entry is <sha256 of the canonical cell>.json. Entries are
// plain JSON, not compressed — distribution samples are stored as packed
// base64 blobs that barely compress, and a cache hit's latency is the
// decode. Reads and writes are safe across concurrent workers and processes
// (writes go through a temp file + rename). A nil *Cache is valid and
// always misses.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) the cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// cacheEntry is the on-disk envelope.
type cacheEntry struct {
	Schema int              `json:"schema"`
	Result *pipeline.Result `json:"result"`
}

// Get loads the result stored under key. ok is false on a miss; a corrupt
// or schema-mismatched artifact is treated as a miss, never an error.
func (c *Cache) Get(key string) (*pipeline.Result, bool) {
	if c == nil {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Schema != cacheSchema || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// Put stores r under key atomically: the entry is written to a temp file
// in the same directory and renamed into place, so concurrent readers and
// writers never observe a torn artifact.
func (c *Cache) Put(key string, r *pipeline.Result) error {
	if c == nil {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	err = json.NewEncoder(tmp).Encode(cacheEntry{Schema: cacheSchema, Result: r})
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

// keyMaterial is the canonicalized, content-addressable view of a cell:
// every pipeline.Config field that influences the simulation, plus the
// caller-supplied policy identity. Field order is fixed by the struct, and
// encoding/json emits float64s with the minimal digits that round-trip
// exactly, so equal cells hash equally across processes.
type keyMaterial struct {
	Schema            int             `json:"schema"`
	PolicyKey         string          `json:"policy"`
	Label             string          `json:"label"`
	Workload          workload.Params `json:"workload"`
	Scale             workload.Scale  `json:"scale"`
	Net               netsim.Params   `json:"net"`
	Duration          time.Duration   `json:"duration"`
	Seed              int64           `json:"seed"`
	DisableContention bool            `json:"disable_contention"`
	CollectFrames     int             `json:"collect_frames"`
	VRRMinHz          float64         `json:"vrr_min_hz"`
	VRRMaxHz          float64         `json:"vrr_max_hz"`
}

// CellKey derives the content hash for a cell. ok is false when the cell
// is not cacheable: no PolicyKey, or a Config carrying live objects — a
// Source replaces the stochastic sampler with caller state, and a Trace
// expects side effects that a cache hit would silently skip.
func CellKey(c Cell) (key string, ok bool) {
	cfg := c.Config
	if c.PolicyKey == "" || cfg.Source != nil || cfg.Trace != nil {
		return "", false
	}
	b, err := json.Marshal(keyMaterial{
		Schema:            cacheSchema,
		PolicyKey:         c.PolicyKey,
		Label:             cfg.Label,
		Workload:          cfg.Workload,
		Scale:             cfg.Scale,
		Net:               cfg.Net,
		Duration:          cfg.Duration,
		Seed:              cfg.Seed,
		DisableContention: cfg.DisableContention,
		CollectFrames:     cfg.CollectFrames,
		VRRMinHz:          cfg.VRRMinHz,
		VRRMaxHz:          cfg.VRRMaxHz,
	})
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}
