package sublineardp

import (
	"context"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cache"
)

// Cache is a content-addressed solution cache with single-flight dedup:
// a sharded LRU keyed by the instance's canonical encoding plus every
// configuration field that can change the result. Attach one to a Solver
// with WithCache and repeated solves of identical instances are served
// from memory, while identical *in-flight* solves fold into one
// computation — the same machinery cmd/dpserved runs behind its HTTP
// front end, available to in-process users.
//
// Only canonicalisable instances participate (Instance.Canonical — the
// matrixchain / obst / triangulation / wtriangulation constructors);
// solves of opaque closure-backed instances bypass the cache entirely.
// A Cache is safe for concurrent use and may back any number of Solvers.
//
// Chain solves (ChainSolver, SolveChainBatch) share the same Cache
// value but live in their own LRU and single-flight group: the two
// recurrence classes can never collide on an entry, and each class gets
// the full configured capacity.
type Cache struct {
	lru *cache.Sharded[*Solution]
	sf  cache.Group[*Solution]

	clru *cache.Sharded[*ChainSolution]
	csf  cache.Group[*ChainSolution]
}

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits / Misses count lookups against the resident LRU.
	Hits, Misses int64
	// Insertions / Updates / Evictions count LRU mutations.
	Insertions, Updates, Evictions int64
	// Solves counts computations actually executed; Coalesced counts
	// callers that folded into an in-flight identical solve.
	Solves, Coalesced int64
}

// NewCache returns a Cache holding at most capacity solutions
// (capacity <= 0 picks 1024).
func NewCache(capacity int) *Cache {
	return &Cache{
		lru:  cache.New[*Solution](capacity, 16),
		clru: cache.New[*ChainSolution](capacity, 16),
	}
}

// Stats returns the cumulative counters, summed over the interval and
// chain stores.
func (c *Cache) Stats() CacheStats {
	ls, cs := c.lru.Stats(), c.clru.Stats()
	fs, cf := c.sf.Stats(), c.csf.Stats()
	return CacheStats{
		Hits: ls.Hits + cs.Hits, Misses: ls.Misses + cs.Misses,
		Insertions: ls.Insertions + cs.Insertions,
		Updates:    ls.Updates + cs.Updates,
		Evictions:  ls.Evictions + cs.Evictions,
		Solves:     fs.Executions + cf.Executions,
		Coalesced:  fs.Dedups + cf.Dedups,
	}
}

// Len returns the number of resident solutions (interval plus chain).
func (c *Cache) Len() int { return c.lru.Len() + c.clru.Len() }

// solveKey derives the content key for one solve: the instance's
// canonical bytes (which already fold in the instance's declared
// algebra) plus every Config field that can alter the returned Solution
// (engine routing, scheduling, iteration discipline, band, and the
// *effective* algebra — WithSemiring's override wins over the declared
// one, exactly as the engines resolve it, so an override can never be
// served a declared-algebra entry or vice versa). Target is deliberately
// not keyed — Solver.Solve bypasses the cache entirely when a target is
// set. It reports false for instances that cannot be canonicalised.
//
// Keying discipline (guarded by TestSolveKeySeparatesResultAffectingOptions):
// every field below changes either the solved values, the engine
// routing, or an observable Solution field, and every Config field with
// that property must be below. Pool, Cache and Concurrency are execution
// plumbing with no result effect and are deliberately unkeyed; Workers
// and TileSize cannot change values either but stay keyed as scheduling
// provenance (conservative, documented in DESIGN.md).
func solveKey(in *Instance, engineName string, cfg *Config) (cache.Key, bool) {
	canon, ok := in.Canonical()
	if !ok {
		return cache.Key{}, false
	}
	srName := algebra.ResolveName(cfg.Semiring, in.Algebra)
	h := cache.NewHasher().
		Bytes("instance", canon).
		String("engine", engineName).
		Int64("workers", int64(cfg.Workers)).
		Int64("tile", int64(cfg.TileSize)).
		Int64("mode", int64(cfg.Mode)).
		Int64("term", int64(cfg.Termination)).
		Int64("maxiter", int64(cfg.MaxIterations)).
		Int64("band", int64(cfg.BandRadius)).
		Bool("window", cfg.Window).
		Int64("autocutoff", int64(cfg.AutoCutoff)).
		String("semiring", srName).
		Bool("history", cfg.History).
		Bool("splits", cfg.RecordSplits).
		Bool("convexity", cfg.Convexity)
	return h.Sum(), true
}

// solve runs the cache protocol around compute: LRU lookup, then
// single-flight execution on miss. Every path returns a caller-private
// shallow copy (Cached tells hits and joins apart from led solves), so
// no caller ever holds the pointer resident in the LRU.
func (c *Cache) solve(ctx context.Context, key cache.Key, compute func(context.Context) (*Solution, error)) (*Solution, error) {
	if sol, ok := c.lru.Get(key); ok {
		cp := *sol
		cp.Cached = true
		return &cp, nil
	}
	sol, joined, err := c.sf.Do(ctx, key, func(fctx context.Context) (*Solution, error) {
		s, err := compute(fctx)
		if err != nil {
			return nil, err
		}
		c.lru.Add(key, s)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	// Every caller — leader included — gets its own shallow copy: the
	// pointer resident in the LRU must never be handed out, or a caller
	// mutating "its" result would corrupt the cache.
	cp := *sol
	cp.Cached = joined
	return &cp, nil
}

// solveChain is solve for the chain store: the identical protocol over
// the chain LRU and single-flight group, with the same private
// shallow-copy discipline.
func (c *Cache) solveChain(ctx context.Context, key cache.Key, compute func(context.Context) (*ChainSolution, error)) (*ChainSolution, error) {
	if sol, ok := c.clru.Get(key); ok {
		cp := *sol
		cp.Cached = true
		return &cp, nil
	}
	sol, joined, err := c.csf.Do(ctx, key, func(fctx context.Context) (*ChainSolution, error) {
		s, err := compute(fctx)
		if err != nil {
			return nil, err
		}
		c.clru.Add(key, s)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	cp := *sol
	cp.Cached = joined
	return &cp, nil
}
