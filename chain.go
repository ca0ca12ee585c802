package sublineardp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/llp"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

// Chain is the repository's second recurrence class: a 1D prefix dynamic
// program c(j) = Combine_{k<j} Extend(c(k), F(k,j)) over any registered
// algebra, alongside the interval recurrence (*) Instance expresses. See
// recurrence.Chain for the contract and NewSegmentedLeastSquares /
// NewIntervalScheduling / NewSubsetSum for the shipped families.
type Chain = recurrence.Chain

// Vector is the dense result of a chain solve: the values c(0)..c(N).
type Vector = recurrence.Vector

// Registry names of the built-in chain engines.
const (
	// ChainEngineAuto picks a chain engine, and never picks "llp". A
	// dense chain (one that folds its whole window) longer than the
	// cutoff (WithAutoCutoff, default DefaultChainAutoCutoff; never
	// below 64) goes to the tiled engine when the solve gets two or more
	// workers (WithWorkers, else the pool's width, capped at
	// GOMAXPROCS). Every other chain goes to the sequential scan: short
	// ones, any chain on one worker, and a chain that declares a Support
	// solved under its declared algebra, whose O(n·support) fold has
	// nothing to tile (index j waits on j-1).
	ChainEngineAuto = "auto"
	// ChainEngineSequential is the prefix scan, O(sum of window sizes)
	// or, for a chain that declares a Support, O(sum of support sizes)
	// (records predecessors, so ChainSolution.Path is O(n)).
	ChainEngineSequential = "sequential"
	// ChainEngineTiled cuts the chain into blocks of WithTileSize
	// indices (default about n/(8·workers), within [32, 128]) and runs
	// it on the pool's task graph, the 1-D form of the interval tile
	// engines' schedule (internal/blocked).
	// Its work is the sequential scan's, and it records predecessors, so
	// ChainSolution.Path is O(n). A chain that declares a Support,
	// solved under its declared algebra, runs on the sequential scan
	// instead, and the solution then names "sequential".
	ChainEngineTiled = "tiled"
	// ChainEngineLLP is the asynchronous Lattice-Linear-Predicate engine
	// of internal/llp: workers advance any index whose predecessors are
	// stable, with no global barriers, at exactly the sequential work.
	ChainEngineLLP = "llp"
)

// DefaultChainAutoCutoff is the default size threshold of the "auto"
// chain engine for dense chains: with two or more workers, n <= 512
// goes to the sequential prefix scan and longer chains to the tiled
// engine. A chain that folds only its declared Support ignores it and
// always goes to the sequential scan. On a 2-core host (segls, medians
// of 11 interleaved rounds) the tiled engine on two workers ran 1.4–1.8×
// faster than the scan at n=512, 1.8× at n=1024 and 2.1× at n=4096,
// but 0.7–0.9× at n <= 192; at n=256 it won (1.35×) only while the host
// gave the solve two full cores. On one worker it runs about level with
// the scan (0.84–1.04×), so auto keeps one-worker solves on the scan.
// servebench picks its chain oracle by this constant.
const DefaultChainAutoCutoff = 512

// minTiledChain is the floor of the auto cutoff. On short chains the
// task graph costs more than the parallel fold saves: segls at n=128
// ran at 0.8× the sequential scan's speed on two workers.
const minTiledChain = 64

// ChainEngine is one algorithm for the chain recurrence behind the
// ChainSolver API — the chain analogue of Engine, with the same
// contract: safe for concurrent use, honours ctx cancellation, returns a
// non-nil ChainSolution exactly when the error is nil.
type ChainEngine interface {
	// Name is the registry key ("sequential", "llp", ...).
	Name() string
	// SolveChain runs the engine on one chain under the given read-only
	// configuration.
	SolveChain(ctx context.Context, c *Chain, cfg *Config) (*ChainSolution, error)
}

var chainRegistry = struct {
	mu sync.RWMutex
	m  map[string]ChainEngine
}{m: make(map[string]ChainEngine)}

// RegisterChainEngine adds a chain engine to the registry under
// e.Name(). It rejects nil engines, empty names, and duplicates. The
// chain registry is separate from the interval one: the two recurrence
// classes share names ("auto", "sequential") without colliding.
func RegisterChainEngine(e ChainEngine) error {
	if e == nil || e.Name() == "" {
		return errors.New("sublineardp: RegisterChainEngine needs a non-nil engine with a non-empty name")
	}
	chainRegistry.mu.Lock()
	defer chainRegistry.mu.Unlock()
	if _, dup := chainRegistry.m[e.Name()]; dup {
		return fmt.Errorf("sublineardp: chain engine %q already registered", e.Name())
	}
	chainRegistry.m[e.Name()] = e
	return nil
}

// LookupChainEngine returns the chain engine registered under name.
func LookupChainEngine(name string) (ChainEngine, bool) {
	chainRegistry.mu.RLock()
	defer chainRegistry.mu.RUnlock()
	e, ok := chainRegistry.m[name]
	return e, ok
}

// ChainEngines returns the sorted names of all registered chain engines.
func ChainEngines() []string {
	chainRegistry.mu.RLock()
	defer chainRegistry.mu.RUnlock()
	names := make([]string, 0, len(chainRegistry.m))
	for name := range chainRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	for _, e := range []ChainEngine{
		autoChainEngine{},
		sequentialChainEngine{},
		tiledChainEngine{},
		llpChainEngine{},
	} {
		if err := RegisterChainEngine(e); err != nil {
			panic(err)
		}
	}
}

// ChainSolution is the unified outcome of a chain solve: one type for
// both chain engines, the 1D analogue of Solution.
type ChainSolution struct {
	// Engine is the registry name of the chain engine that produced this
	// solution; for "auto" it names the engine actually chosen.
	Engine string

	// Algebra names the semiring the solve ran under — the key to
	// interpreting Values (minimal cost, maximal weight, 0/1
	// feasibility).
	Algebra string

	// Values holds the converged vector c(0)..c(N); Values.Root() is the
	// optimum, also available as Cost().
	Values *Vector

	// Work counts candidate folds — identical across engines on the same
	// chain (the tiled and LLP engines are work-efficient by
	// construction).
	Work int64

	// Sweeps is the LLP engine's straggler metric: the largest number of
	// relaxation sweeps any one worker ran (zero for the other engines,
	// 1 when every index was ready on first visit).
	Sweeps int

	// Elapsed is the wall-clock duration of the solve.
	Elapsed time.Duration

	// chain backs Path(); preds holds the predecessors the sequential
	// and tiled engines record (nil for llp).
	chain *Chain
	preds []int32
}

// Cost returns the computed optimum c(N). On a solution without a
// vector — the zero value, or an error-path partial — it returns the
// algebra's Zero instead of panicking.
func (s *ChainSolution) Cost() Cost {
	if s == nil || s.Values == nil {
		if s != nil {
			if sr, ok := LookupSemiring(s.Algebra); ok {
				return sr.Zero()
			}
		}
		return Inf
	}
	return s.Values.Root()
}

// N returns the chain length the solution answers for, or 0 for a
// solution without a vector.
func (s *ChainSolution) N() int {
	if s == nil || s.Values == nil {
		return 0
	}
	return s.Values.N
}

// Feasible reports that c(N) holds a solution — its value is not the
// algebra's Zero.
func (s *ChainSolution) Feasible() bool {
	if s == nil || s.Values == nil {
		return false
	}
	k, err := algebra.Resolve(nil, s.Algebra)
	if err != nil {
		return false
	}
	return k.Norm(s.Values.Root()) != k.Norm(k.Zero())
}

// Path returns the witness breakpoint sequence 0 = k_0 < k_1 < ... <
// k_m = N (segment boundaries, the scheduled-job prefix lengths, the
// running subset sums). The sequential and tiled engines — every engine
// "auto" picks — record the smallest-k predecessor of every index during
// the solve, so Path walks them back from N in O(n) and evaluates no
// transition weight. A solution without recorded predecessors (the
// explicitly named "llp") recovers them from the converged vector, one
// path node at a time: the predecessor of node j is the smallest k whose
// candidate realises c(j), scanned over the chain's declared support
// when the solve folded only that (Chain.UsesSupport), else over j's
// window with the transition weights bulk-evaluated through FRow into
// one scratch row. That is O(path length × support) or the windows of
// the path nodes only, and the smallest-k rule is the recording engines'
// tie-break, so every path agrees.
func (s *ChainSolution) Path() ([]int, error) {
	if s == nil {
		return nil, errors.New("sublineardp: Path on a nil solution")
	}
	if s.Values == nil || s.chain == nil {
		return nil, errors.New("sublineardp: solution carries no chain to reconstruct from")
	}
	if !s.Feasible() {
		return nil, errors.New("sublineardp: no chain optimum to reconstruct (root is the algebra's Zero)")
	}
	if s.preds != nil {
		return recurrence.PredPath(s.preds)
	}
	k, err := algebra.Resolve(nil, s.Algebra)
	if err != nil {
		return nil, err
	}
	c, values := s.chain, s.Values.Data()
	sparse := c.UsesSupport(s.Algebra)
	var row []Cost
	var sup []int32
	path := []int{c.N}
	for j := c.N; j > 0; {
		pred := -1
		target := k.Norm(values[j])
		if sparse {
			sup = c.Support(j, sup[:0])
			for _, k32 := range sup {
				if kk := int(k32); k.Norm(k.Extend(values[kk], c.F(kk, j))) == target {
					pred = kk
					break
				}
			}
		} else {
			lo := c.Lo(j)
			if row == nil {
				row = make([]Cost, j-lo) // the root's window is the widest
			}
			r := row[:j-lo]
			if c.FRow != nil {
				c.FRow(j, lo, r)
			} else {
				for t := range r {
					r[t] = c.F(lo+t, j)
				}
			}
			for t, f := range r {
				if k.Norm(k.Extend(values[lo+t], f)) == target {
					pred = lo + t
					break
				}
			}
		}
		if pred < 0 {
			return nil, fmt.Errorf("sublineardp: no candidate realises c(%d); vector is not a fixed point", j)
		}
		path = append(path, pred)
		j = pred
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// sequentialChainEngine wraps the prefix scan of internal/seq.
type sequentialChainEngine struct{}

func (sequentialChainEngine) Name() string { return ChainEngineSequential }

func (sequentialChainEngine) SolveChain(ctx context.Context, c *Chain, cfg *Config) (*ChainSolution, error) {
	res, err := seq.SolveChainSemiringCtx(ctx, c, cfg.Semiring)
	if err != nil {
		return nil, err
	}
	return &ChainSolution{
		Engine:  ChainEngineSequential,
		Algebra: algebra.ResolveName(cfg.Semiring, c.Algebra),
		Values:  res.Values,
		Work:    res.Work,
		chain:   c,
		preds:   res.Preds(),
	}, nil
}

// tiledChainEngine wraps the tiled chain engine of internal/blocked.
type tiledChainEngine struct{}

func (tiledChainEngine) Name() string { return ChainEngineTiled }

func (tiledChainEngine) SolveChain(ctx context.Context, c *Chain, cfg *Config) (*ChainSolution, error) {
	alg := algebra.ResolveName(cfg.Semiring, c.Algebra)
	if c.UsesSupport(alg) {
		return sequentialChainEngine{}.SolveChain(ctx, c, cfg)
	}
	res, err := blocked.SolveChainCtx(ctx, c, blocked.Options{
		Workers:  cfg.Workers,
		Pool:     cfg.Pool,
		TileSize: cfg.TileSize,
		Semiring: cfg.Semiring,
	})
	if err != nil {
		return nil, err
	}
	return &ChainSolution{
		Engine:  ChainEngineTiled,
		Algebra: alg,
		Values:  res.Values,
		Work:    res.Work,
		chain:   c,
		preds:   res.Preds,
	}, nil
}

// llpChainEngine wraps the asynchronous engine of internal/llp.
type llpChainEngine struct{}

func (llpChainEngine) Name() string { return ChainEngineLLP }

func (llpChainEngine) SolveChain(ctx context.Context, c *Chain, cfg *Config) (*ChainSolution, error) {
	res, err := llp.SolveCtx(ctx, c, llp.Options{
		Workers:  cfg.Workers,
		Pool:     cfg.Pool,
		Semiring: cfg.Semiring,
	})
	if err != nil {
		return nil, err
	}
	return &ChainSolution{
		Engine:  ChainEngineLLP,
		Algebra: algebra.ResolveName(cfg.Semiring, c.Algebra),
		Values:  res.Values,
		Work:    res.Work,
		Sweeps:  res.Sweeps,
		chain:   c,
	}, nil
}

// autoChainEngine is the chain selector: the tiled engine for dense
// chains above the cutoff on two or more workers, the sequential scan
// for everything else. The returned ChainSolution names the engine
// actually chosen.
type autoChainEngine struct{}

func (autoChainEngine) Name() string { return ChainEngineAuto }

func (autoChainEngine) SolveChain(ctx context.Context, c *Chain, cfg *Config) (*ChainSolution, error) {
	return pickChainAuto(c, cfg).SolveChain(ctx, c, cfg)
}

// pickChainAuto resolves the auto chain engine's choice for c.
func pickChainAuto(c *Chain, cfg *Config) ChainEngine {
	cutoff := cfg.AutoCutoff
	if cutoff <= 0 {
		cutoff = DefaultChainAutoCutoff
	}
	name := ChainEngineSequential
	if c.N > max(cutoff, minTiledChain) && !c.UsesSupport(algebra.ResolveName(cfg.Semiring, c.Algebra)) &&
		blocked.ChainWorkers(cfg.Pool, cfg.Workers) >= 2 {
		name = ChainEngineTiled
	}
	e, ok := LookupChainEngine(name)
	if !ok {
		// The built-ins are registered in init; this cannot fail.
		panic(fmt.Sprintf("sublineardp: built-in chain engine %q missing", name))
	}
	return e
}

// ChainSolver is the chain twin of Solver: a registry chain engine plus
// a fixed configuration, immutable and safe for concurrent use.
type ChainSolver struct {
	engine ChainEngine
	cfg    Config
}

// NewChainSolver builds a ChainSolver for the named chain engine (""
// picks "auto"). It fails on unknown names; see ChainEngines for the
// registered set.
func NewChainSolver(engine string, opts ...Option) (*ChainSolver, error) {
	cfg := buildConfig(opts)
	name := engine
	if name == "" {
		name = cfg.Engine
	}
	if name == "" {
		name = ChainEngineAuto
	}
	e, ok := LookupChainEngine(name)
	if !ok {
		return nil, fmt.Errorf("sublineardp: unknown chain engine %q (registered: %v)", name, ChainEngines())
	}
	cfg.Engine = name
	return &ChainSolver{engine: e, cfg: cfg}, nil
}

// MustNewChainSolver is NewChainSolver but panics on error.
func MustNewChainSolver(engine string, opts ...Option) *ChainSolver {
	s, err := NewChainSolver(engine, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// EngineName returns the registry name the ChainSolver was built with.
func (s *ChainSolver) EngineName() string { return s.engine.Name() }

// Solve runs the chain engine on one chain, with exactly Solver.Solve's
// validation, cancellation and timing.
func (s *ChainSolver) Solve(ctx context.Context, c *Chain) (*ChainSolution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c == nil || c.N < 1 {
		return nil, fmt.Errorf("sublineardp: invalid chain (nil or N < 1)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	sol, err := s.engine.SolveChain(ctx, c, &s.cfg)
	if err != nil {
		return nil, err
	}
	sol.Elapsed = time.Since(start)
	return sol, nil
}

// NewSegmentedLeastSquares returns the segmented least squares chain
// over the points (xs[t], ys[t]): the min-plus optimum c(n) is the
// cheapest piecewise-linear fit, charging each segment its squared error
// (in thousandths) plus penalty. xs must be strictly increasing.
func NewSegmentedLeastSquares(xs, ys []int64, penalty int64) *Chain {
	return problems.SegmentedLeastSquares(xs, ys, penalty)
}

// NewIntervalScheduling returns the weighted interval scheduling chain:
// the max-plus optimum c(n) is the maximum total weight of any
// non-overlapping subset of the jobs [starts[t], ends[t]) with
// nonnegative weights[t].
func NewIntervalScheduling(starts, ends, weights []int64) *Chain {
	return problems.IntervalScheduling(starts, ends, weights)
}

// NewSubsetSum returns the sum-feasibility chain over bool-plan:
// Cost() is 1 exactly when target is a sum of the (positive) items,
// each usable any number of times.
func NewSubsetSum(target int64, items []int64) *Chain {
	return problems.SubsetSum(target, items)
}
