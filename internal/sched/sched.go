// Package sched is the shared experiment runner: a deterministic scheduler
// that executes independent pipeline.Config cells on the process-wide
// worker pool (internal/wpool, shared with the tile codec), plus a result
// cache keyed by the cell — its PolicyKey and pipeline.Config — that serves
// an entry only to the executable that wrote it (cache.go).
//
// Determinism comes from two properties. First, pipeline.Run is a pure
// function of its Config — each cell carries its own seed (seedFor in
// package experiments), so execution order cannot influence a result.
// Second, the runner reassembles results by submission index, so callers
// that print results in slice order produce byte-identical output whether
// the batch ran on one worker or sixteen.
package sched

import (
	"runtime"
	"sync/atomic"

	"odr/internal/pipeline"
	"odr/internal/wpool"
)

// Options configures a Runner.
type Options struct {
	// Workers is the number of concurrent workers (0 = GOMAXPROCS,
	// 1 = sequential execution in the calling goroutine).
	Workers int
	// Cache, when non-nil, serves cacheable cells from disk and persists
	// fresh results (see Cache and CellKey).
	Cache *Cache
}

// Runner executes batches of cells. It is safe for concurrent use.
type Runner struct {
	workers int
	cache   *Cache

	cellsRun, hits, misses atomic.Int64 // read by Stats
}

// New returns a runner over o.
func New(o Options) *Runner {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: w, cache: o.Cache}
}

// Workers returns the configured worker count.
func (r *Runner) Workers() int { return r.workers }

// Stats reports the lifetime cell and cache counts: cells executed (cache
// misses included), cells served from the cache, and cache lookups that
// missed.
func (r *Runner) Stats() (run, hits, misses int64) {
	return r.cellsRun.Load(), r.hits.Load(), r.misses.Load()
}

// Cell is one schedulable simulation: a pipeline.Config plus the identity
// of its policy. Config.Policy is a function and cannot be hashed, so the
// caller names the concrete policy in PolicyKey: the cell's label (a
// core.Policy's String, or a variant's own name), with anything the label
// omits appended — the RVS cc sweep's cells all read RVS60 and key
// RVS60-cc<cc>. An empty PolicyKey marks the cell uncacheable (it always
// runs).
type Cell struct {
	PolicyKey string
	Config    pipeline.Config
}

// Run executes every cell and returns the results in submission order.
// Cell i's result is always out[i], regardless of which worker ran it.
func (r *Runner) Run(cells []Cell) []*pipeline.Result {
	return Map(r.workers, len(cells), func(i int) *pipeline.Result {
		return r.runCell(cells[i])
	})
}

// RunOne executes a single cell (with cache probing) in the calling
// goroutine.
func (r *Runner) RunOne(c Cell) *pipeline.Result { return r.runCell(c) }

func (r *Runner) runCell(c Cell) *pipeline.Result {
	key, cacheable := "", false
	if r.cache != nil { // an uncached run skips the key's JSON and hash
		key, cacheable = CellKey(c)
	}
	if cacheable {
		if res, ok := r.cache.Get(key); ok {
			r.hits.Add(1)
			return res
		}
		r.misses.Add(1)
	}
	res := pipeline.Run(c.Config)
	r.cellsRun.Add(1)
	if cacheable {
		_ = r.cache.Put(key, res) // a failed store costs only a later miss
	}
	return res
}

// Map runs fn(i) for every i in [0, n) across up to workers concurrent
// executors and returns the results in index order: out[i] always holds
// fn(i), and fn runs exactly once per index. Execution order is arbitrary
// but with pure fn the output is identical to a sequential loop. A panic
// in fn propagates to the caller after all executors have stopped.
//
// The work runs on the process-wide wpool.Default() pool — the same
// persistent workers the tile codec uses — instead of spawning a goroutine
// batch per call, so back-to-back experiment batches and in-flight frame
// encodes share one set of executors.
func Map[T any](workers, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	wpool.Default().Map(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
