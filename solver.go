package sublineardp

import (
	"context"
	"fmt"
	"time"
)

// Solver is the unified entry point to every algorithm in the
// repository: a registry engine plus a fixed configuration. A Solver is
// immutable after construction and safe for concurrent use — one Solver
// can serve many goroutines (and is what SolveBatch builds on).
//
//	s, err := sublineardp.NewSolver(sublineardp.EngineHLVBanded,
//	        sublineardp.WithTermination(sublineardp.WStable))
//	sol, err := s.Solve(ctx, in)
type Solver struct {
	engine Engine
	cfg    Config
}

// NewSolver builds a Solver for the named registry engine ("" picks
// "auto", the size-based selector). It fails on unknown engine names;
// see Engines for the registered set.
func NewSolver(engine string, opts ...Option) (*Solver, error) {
	cfg := buildConfig(opts)
	name := engine
	if name == "" {
		name = cfg.Engine
	}
	if name == "" {
		name = EngineAuto
	}
	e, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("sublineardp: unknown engine %q (registered: %v)", name, Engines())
	}
	cfg.Engine = name
	return &Solver{engine: e, cfg: cfg}, nil
}

// MustNewSolver is NewSolver but panics on error, for initialisation of
// package-level solvers with known-good engine names.
func MustNewSolver(engine string, opts ...Option) *Solver {
	s, err := NewSolver(engine, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// EngineName returns the registry name the Solver was built with
// ("auto" reports itself, not its per-instance choice — that is in
// Solution.Engine).
func (s *Solver) EngineName() string { return s.engine.Name() }

// Solve runs the engine on one instance. The context's cancellation and
// deadline are honoured cooperatively by every engine: a solve aborted
// mid-iteration returns a nil Solution and ctx.Err() promptly rather
// than running to completion.
func (s *Solver) Solve(ctx context.Context, in *Instance) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in == nil || in.N < 1 {
		return nil, fmt.Errorf("sublineardp: invalid instance (nil or N < 1)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// WithConvexity is a contract, not a hint: fail fast here — before
	// the cache protocol — so an ineligible instance can never be served
	// a cached result that pretended the pruned path ran.
	if s.cfg.Convexity {
		if err := kyGate(&s.cfg, in); err != nil {
			return nil, err
		}
	}
	// WithTarget instrumentation is excluded from caching: Target is a
	// table pointer whose content would have to be hashed to key it
	// correctly, and a cached ConvergedAt recorded under a different
	// target would be silently wrong.
	if s.cfg.Cache != nil && s.cfg.Target == nil {
		if key, ok := solveKey(in, s.engine.Name(), &s.cfg); ok {
			start := time.Now()
			sol, err := s.cfg.Cache.solve(ctx, key, func(fctx context.Context) (*Solution, error) {
				return s.solveDirect(fctx, in)
			})
			if err != nil {
				return nil, err
			}
			if sol.Cached {
				sol.Elapsed = time.Since(start)
			}
			return sol, nil
		}
	}
	return s.solveDirect(ctx, in)
}

// solveDirect runs the engine unconditionally — the compute path under
// the cache protocol and the whole path when no cache is attached.
func (s *Solver) solveDirect(ctx context.Context, in *Instance) (*Solution, error) {
	start := time.Now()
	sol, err := s.engine.Solve(ctx, in, &s.cfg)
	if err != nil {
		return nil, err
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}
