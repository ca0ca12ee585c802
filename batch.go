package sublineardp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sublineardp/internal/blocked"
	"sublineardp/internal/parutil"
)

// SolveBatch fans a slice of instances across a worker pool — the
// building block for serving many requests at once. Scheduling is by
// engine name (WithEngine; the default "auto" routes each instance to
// blocked-pipe, or to blocked-ky when it declares convexity under
// min-plus and is above the cutoff), and WithConcurrency bounds how many
// instances are in flight at once (default GOMAXPROCS). Two or more
// instances bound for the tile engines (blocked, blocked-pipe,
// blocked-ky) share one task graph, so their solves overlap.
//
// The whole batch runs on one persistent worker pool — WithPool's if
// given, else the process-wide shared pool: the batch fan-out claims
// instances from it and every solve dispatches its kernels onto it, so a
// batch spawns no per-instance goroutines and per-solve buffers recycle
// through the shared arena.
//
// The result slice is order-stable and complete: result[i] is the
// solution of instances[i] for every i, independent of scheduling order.
// Unless WithWorkers overrides it, each solve runs single-threaded so
// batch-level parallelism is not oversubscribed by intra-solve
// parallelism.
//
// Cancellation: when ctx is cancelled or its deadline passes, in-flight
// solves abort at their next cooperative check and unstarted instances
// are skipped. Failed or skipped slots are nil in the result slice and
// their errors (each wrapped with the instance index) are joined into
// the returned error; errors.Is(err, context.Canceled) reports a
// cancelled batch.
func SolveBatch(ctx context.Context, instances []*Instance, opts ...Option) ([]*Solution, error) {
	cfg := buildConfig(opts)
	if cfg.Engine == "" {
		cfg.Engine = EngineAuto
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(instances) {
		workers = len(instances)
	}
	// Captured before the per-solve width is forced to 1: an overlapped
	// pipe group IS the batch's parallelism (one shared scheduler), so it
	// keeps the caller's intra-solve width (0 = pool width).
	pipeWorkers := cfg.Workers
	if cfg.Workers == 0 && workers > 1 {
		cfg.Workers = 1
	}
	pool := cfg.Pool
	if pool == nil {
		pool = parutil.Default()
		cfg.Pool = pool // every solve of the batch shares it
	}
	// One shared Solver does each solve, so batch slots get exactly the
	// validation, timing and engine dispatch a direct Solve call gets.
	solver, err := NewSolver(cfg.Engine, func(c *Config) { *c = cfg })
	if err != nil {
		return nil, err
	}

	out := make([]*Solution, len(instances))
	if len(instances) == 0 {
		return out, nil
	}
	errs := make([]error, len(instances))

	// Cross-solve overlap: two or more instances destined for a tile
	// engine seed their tile graphs into one shared scheduler
	// (blocked.SolvePipeBatchCtx) instead of running one after another —
	// one solve's tail tiles fill another's head. Only the plain path
	// overlaps: a convergence target or a convexity contract each need
	// the per-instance Solve protocol, and so does an ineligible
	// blocked-ky instance, whose error that protocol reports.
	var pipeIdx []int
	pipeEngine := make([]string, len(instances))
	inPipe := make([]bool, len(instances))
	if cfg.Target == nil && !cfg.Convexity {
		for i, in := range instances {
			if in == nil || in.N < 1 {
				continue // the per-instance path reports the invalid instance
			}
			name := cfg.Engine
			if name == EngineAuto {
				name = pickAutoName(in, &cfg)
			}
			if name == EngineBlocked || name == EngineBlockedPipe ||
				name == EngineBlockedKY && kyGate(&cfg, in) == nil {
				pipeIdx = append(pipeIdx, i)
				pipeEngine[i] = name
			}
		}
		if len(pipeIdx) >= 2 {
			for _, i := range pipeIdx {
				inPipe[i] = true
			}
		} else {
			pipeIdx = nil
		}
	}

	var pipeDone chan struct{}
	if pipeIdx != nil {
		items := make([]blocked.BatchItem, len(pipeIdx))
		for k, i := range pipeIdx {
			items[k] = blocked.BatchItem{In: instances[i], KY: pipeEngine[i] == EngineBlockedKY}
		}
		pipeDone = make(chan struct{})
		go func() {
			defer close(pipeDone)
			start := time.Now()
			results, perrs := blocked.SolvePipeBatchCtx(ctx, items, blocked.Options{
				Workers:      pipeWorkers,
				Pool:         pool,
				TileSize:     cfg.TileSize,
				Semiring:     cfg.Semiring,
				RecordSplits: cfg.RecordSplits,
			})
			elapsed := time.Since(start)
			for k, i := range pipeIdx {
				if perrs[k] != nil {
					errs[i] = fmt.Errorf("instance %d (%s): %w", i, instances[i].Name, perrs[k])
					continue
				}
				sol := blockedSolution(pipeEngine[i], instances[i], &cfg, results[k])
				// The group ran as one graph; each solution reports the
				// group's wall clock (and its joint Stats view).
				sol.Elapsed = elapsed
				out[i] = sol
			}
		}()
	}

	// The fan-out for the remaining instances runs on the same pool as
	// the solves (and as the pipe group's graph); grain 1 claims one
	// instance at a time so slow solves balance.
	rest := make([]int, 0, len(instances))
	for i := range instances {
		if !inPipe[i] {
			rest = append(rest, i)
		}
	}
	if len(rest) > 0 {
		pool.ForChunked(workers, len(rest), 1, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				i := rest[r]
				in := instances[i]
				label := "<nil>"
				if in != nil {
					label = in.Name
				}
				sol, err := solver.Solve(ctx, in)
				if err != nil {
					errs[i] = fmt.Errorf("instance %d (%s): %w", i, label, err)
					continue
				}
				out[i] = sol
			}
		})
	}
	if pipeDone != nil {
		<-pipeDone
	}
	return out, errors.Join(errs...)
}
