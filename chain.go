package sublineardp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sublineardp/internal/algebra"
	"sublineardp/internal/llp"
	"sublineardp/internal/parutil"
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
	// ChainEngineAuto picks a chain engine. A chain that declares a
	// Support, solved under its declared algebra, goes to the sequential
	// scan at every n: its O(n·support) fold leaves LLP nothing to
	// parallelise, since index j waits on j-1. Any other chain goes by
	// size: n <= the cutoff (WithAutoCutoff, default
	// DefaultChainAutoCutoff) to the sequential scan, larger chains to
	// the asynchronous LLP engine.
	ChainEngineAuto = "auto"
	// ChainEngineSequential is the prefix scan, O(sum of window sizes)
	// or, for a chain that declares a Support, O(sum of support sizes)
	// (records predecessors, so ChainSolution.Path is O(n)).
	ChainEngineSequential = "sequential"
	// ChainEngineLLP is the asynchronous Lattice-Linear-Predicate engine
	// of internal/llp: workers advance any index whose predecessors are
	// stable, with no global barriers, at exactly the sequential work.
	ChainEngineLLP = "llp"
)

// DefaultChainAutoCutoff is the default size threshold of the "auto"
// chain engine for dense chains: n <= 512 goes to the sequential prefix
// scan, larger chains to LLP. A chain that folds only its declared
// Support ignores it and always goes to the sequential scan. Since that
// scan evaluates each window through FRow and folds it in a loop
// specialised per kernel, it keeps up with LLP at 2 workers well above
// 512 on a 2-core host (segls, medians: 4.0 vs 4.9 ms at n=1024, 92 vs
// 97 ms at n=4096), but the threshold stays 512 — servebench picks its
// independent chain oracle by this constant.
const DefaultChainAutoCutoff = 512

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
	// chain (the LLP engine is work-efficient by construction).
	Work int64

	// Sweeps is the LLP engine's straggler metric: the largest number of
	// relaxation sweeps any one worker ran (zero for the sequential
	// engine, 1 when every index was ready on first visit).
	Sweeps int

	// Elapsed is the wall-clock duration of the solve.
	Elapsed time.Duration

	// chain backs Path(); pathFn is the sequential engine's O(n)
	// predecessor walk.
	chain  *Chain
	pathFn func() ([]int, error)
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
// running subset sums). The sequential engine recorded predecessors
// during the solve. Every other engine recovers them from the converged
// vector, one path node at a time: the predecessor of node j is the
// smallest k whose candidate realises c(j), scanned over the chain's
// declared support when the solve folded only that (Chain.UsesSupport),
// else over j's window with the transition weights bulk-evaluated
// through FRow into one scratch row. That is O(path length × support) or
// the windows of the path nodes only, and the smallest-k rule is the
// sequential engine's tie-break, so the two paths agree.
func (s *ChainSolution) Path() ([]int, error) {
	if s == nil {
		return nil, errors.New("sublineardp: Path on a nil solution")
	}
	if s.pathFn != nil {
		return s.pathFn()
	}
	if s.Values == nil || s.chain == nil {
		return nil, errors.New("sublineardp: solution carries no chain to reconstruct from")
	}
	if !s.Feasible() {
		return nil, errors.New("sublineardp: no chain optimum to reconstruct (root is the algebra's Zero)")
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
		pathFn: func() ([]int, error) {
			if !res.Feasible() {
				return nil, errors.New("sublineardp: no chain optimum to reconstruct (root is the algebra's Zero)")
			}
			return res.Path(), nil
		},
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

// autoChainEngine is the chain selector: the sequential scan for chains
// that fold only their declared support and for every chain up to the
// cutoff, the LLP engine above it. The returned ChainSolution names the
// engine actually chosen.
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
	if c.N > cutoff && !c.UsesSupport(algebra.ResolveName(cfg.Semiring, c.Algebra)) {
		name = ChainEngineLLP
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

// SolveChainBatch fans a slice of chains across a worker pool, exactly
// as SolveBatch does for interval instances: one shared pool, per-solve
// Workers defaulted to 1 under batch-level parallelism, order-stable
// complete results, per-index error wrapping, cooperative cancellation.
func SolveChainBatch(ctx context.Context, chains []*Chain, opts ...Option) ([]*ChainSolution, error) {
	cfg := buildConfig(opts)
	if cfg.Engine == "" {
		cfg.Engine = ChainEngineAuto
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chains) {
		workers = len(chains)
	}
	if cfg.Workers == 0 && workers > 1 {
		cfg.Workers = 1
	}
	pool := cfg.Pool
	if pool == nil {
		pool = parutil.Default()
		cfg.Pool = pool
	}
	solver, err := NewChainSolver(cfg.Engine, func(c *Config) { *c = cfg })
	if err != nil {
		return nil, err
	}

	out := make([]*ChainSolution, len(chains))
	if len(chains) == 0 {
		return out, nil
	}
	errs := make([]error, len(chains))
	pool.ForChunked(workers, len(chains), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := chains[i]
			label := "<nil>"
			if c != nil {
				label = c.Name
			}
			sol, err := solver.Solve(ctx, c)
			if err != nil {
				errs[i] = fmt.Errorf("chain %d (%s): %w", i, label, err)
				continue
			}
			out[i] = sol
		}
	})
	return out, errors.Join(errs...)
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
