package sublineardp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/core"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/rytter"
	"sublineardp/internal/seq"
	"sublineardp/internal/wavefront"
)

// Engine is one algorithm for recurrence (*) behind the unified Solver
// API. Implementations must be safe for concurrent use: SolveBatch calls
// one Engine from many goroutines. Solve must honour ctx cancellation
// (return ctx.Err() promptly) and must return a non-nil Solution exactly
// when the error is nil. Every built-in engine consumes the one
// recurrence.Instance type under any registered algebra: the effective
// semiring is WithSemiring's override, else the instance's declared
// Algebra, else min-plus.
type Engine interface {
	// Name is the registry key ("sequential", "hlv-banded", ...).
	Name() string
	// Solve runs the engine on one instance under the given read-only
	// configuration.
	Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error)
}

// Registry names of the built-in engines.
const (
	// EngineAuto picks an engine per instance by size: n <= AutoCutoff
	// goes to the sequential scan and larger instances to the
	// blocked-pipe tile engine (O(n^2) memory, no barriers);
	// declared-convex min-plus instances above the
	// cutoff take the Knuth-Yao pruned engine instead. The cutoff
	// defaults to DefaultAutoCutoff; WithCalibration installs the
	// measured, machine-local value a `dpbench -calibrate` pass derived.
	EngineAuto = "auto"
	// EngineSequential is the classic O(n^3) dynamic program (records
	// split points, so Solution.Tree is O(n)).
	EngineSequential = "sequential"
	// EngineWavefront is the span-parallel linear-time baseline.
	EngineWavefront = "wavefront"
	// EngineRytter is Rytter's O(log^2 n)-time baseline the paper
	// improves upon.
	EngineRytter = "rytter"
	// EngineHLVDense is the paper's Sections 2-4 algorithm with the full
	// O(n^4) partial-weight array.
	EngineHLVDense = "hlv-dense"
	// EngineHLVBanded is the headline Section 5 algorithm storing only
	// deficits within the 2*ceil(sqrt n) band.
	EngineHLVBanded = "hlv-banded"
	// EngineBlocked is an alias of EngineBlockedPipe: the same engine
	// under its original name, which its Solutions report.
	EngineBlocked = "blocked"
	// EngineBlockedPipe is the work-efficient blocked engine: B x B
	// tiles, O(n^3) work and O(n^2) memory — the large-instance engine
	// (n = 1024-4096 and beyond) where the HLV partial-weight arrays
	// cannot even be allocated. The tiles run as a dependency graph:
	// every tile carries an atomic in-degree counter derived from its
	// read sets and dispatches the moment it drops to zero, so there are
	// no barriers. Tables and recorded splits are bitwise identical to
	// the sequential engine's. SolveBatch seeds multiple instances' tile
	// graphs into one shared scheduler so independent solves overlap on
	// one pool.
	EngineBlockedPipe = "blocked-pipe"
	// EngineBlockedKY is the Knuth-Yao pruned blocked engine: the same
	// tile graph as "blocked-pipe", but each cell scans only the candidate
	// window bounded by its neighbours' recorded splits — O(n^2) total
	// work instead of O(n^3), with the value table and split matrix
	// bitwise identical to the unpruned engine. Only instances declaring
	// the convexity conditions (Instance.Convex) under min-plus are
	// eligible; anything else fails with ErrConvexityRequired. Splits are
	// always recorded (they are the pruning bounds), so Solution.Tree is
	// O(n) without WithSplits.
	EngineBlockedKY = "blocked-ky"
)

var engineRegistry = struct {
	mu sync.RWMutex
	m  map[string]Engine
}{m: make(map[string]Engine)}

// RegisterEngine adds an engine to the registry under e.Name(). It
// rejects nil engines, empty names, and duplicates, so built-ins cannot
// be replaced by accident.
func RegisterEngine(e Engine) error {
	if e == nil || e.Name() == "" {
		return errors.New("sublineardp: RegisterEngine needs a non-nil engine with a non-empty name")
	}
	engineRegistry.mu.Lock()
	defer engineRegistry.mu.Unlock()
	if _, dup := engineRegistry.m[e.Name()]; dup {
		return fmt.Errorf("sublineardp: engine %q already registered", e.Name())
	}
	engineRegistry.m[e.Name()] = e
	return nil
}

// LookupEngine returns the engine registered under name.
func LookupEngine(name string) (Engine, bool) {
	engineRegistry.mu.RLock()
	defer engineRegistry.mu.RUnlock()
	e, ok := engineRegistry.m[name]
	return e, ok
}

// Engines returns the sorted names of all registered engines.
func Engines() []string {
	engineRegistry.mu.RLock()
	defer engineRegistry.mu.RUnlock()
	names := make([]string, 0, len(engineRegistry.m))
	for name := range engineRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EngineInfo describes one registered engine for CLI listings: what it
// implements and which functional options it honours.
type EngineInfo struct {
	Name        string
	Description string
	Options     string
}

// builtinInfo documents the shipped engines; third-party engines get a
// generic entry (their RegisterEngine call site is the authority on the
// options they interpret).
var builtinInfo = map[string]EngineInfo{
	EngineAuto: {Description: "size-based selector: sequential at n <= cutoff, blocked-pipe above it (blocked-ky for declared-convex min-plus instances)",
		Options: "WithAutoCutoff, WithConvexity, WithSemiring + the chosen engine's options"},
	EngineSequential: {Description: "classic O(n^3) dynamic program with O(n) tree reconstruction",
		Options: "WithSemiring"},
	EngineWavefront: {Description: "span-parallel linear-time baseline",
		Options: "WithWorkers, WithPool, WithSemiring"},
	EngineRytter: {Description: "Rytter's 1988 O(log^2 n) pointer-doubling baseline",
		Options: "WithWorkers, WithPool, WithMaxIterations, WithTarget, WithSemiring"},
	EngineHLVDense: {Description: "paper Sections 2-4: full O(n^4) partial-weight array",
		Options: "WithWorkers, WithPool, WithTileSize, WithMode, WithTermination, WithMaxIterations, WithTarget, WithHistory, WithSemiring"},
	EngineHLVBanded: {Description: "paper Section 5: deficits within 2*ceil(sqrt n), tiled pooled kernels",
		Options: "WithWorkers, WithPool, WithTileSize, WithMode, WithTermination, WithMaxIterations, WithBandRadius, WithWindow, WithTarget, WithHistory, WithSemiring"},
	EngineBlocked: {Description: "alias of blocked-pipe",
		Options: "as blocked-pipe"},
	EngineBlockedPipe: {Description: "work-efficient blocked engine on a barrier-free tile task graph: O(n^3) work, O(n^2) memory, solves n >= 1024; overlaps independent solves in SolveBatch",
		Options: "WithWorkers, WithPool, WithTileSize (block edge B), WithSemiring, WithSplits (O(n) tree reconstruction)"},
	EngineBlockedKY: {Description: "Knuth-Yao pruned blocked engine on the same task graph: O(n^2) work on declared-convex min-plus instances, bitwise identical to sequential",
		Options: "WithWorkers, WithPool, WithTileSize (block edge B); splits always recorded"},
}

// EngineInfos returns one EngineInfo per registered engine, sorted by
// name — the data behind `dpsolve -engines`.
func EngineInfos() []EngineInfo {
	names := Engines()
	infos := make([]EngineInfo, 0, len(names))
	for _, name := range names {
		info, ok := builtinInfo[name]
		if !ok {
			info = EngineInfo{Description: "custom engine (RegisterEngine)", Options: "engine-defined"}
		}
		info.Name = name
		infos = append(infos, info)
	}
	return infos
}

func init() {
	for _, e := range []Engine{
		autoEngine{},
		sequentialEngine{},
		wavefrontEngine{},
		rytterEngine{},
		hlvEngine{name: EngineHLVDense, variant: core.Dense},
		hlvEngine{name: EngineHLVBanded, variant: core.Banded},
		blockedPipeEngine{name: EngineBlocked},
		blockedPipeEngine{name: EngineBlockedPipe},
		blockedKYEngine{},
	} {
		if err := RegisterEngine(e); err != nil {
			panic(err)
		}
	}
}

// resolveSemiring picks the algebra one solve runs under: the config's
// explicit override, else the instance's declared algebra, else
// min-plus. Engines use it for algebra-dependent result shaping; the
// internal solvers re-resolve identically for their kernels.
func resolveSemiring(cfg *Config, in *Instance) (algebra.Kernel, error) {
	return algebra.Resolve(cfg.Semiring, in.Algebra)
}

// sequentialEngine wraps the O(n^3) baseline of internal/seq.
type sequentialEngine struct{}

func (sequentialEngine) Name() string { return EngineSequential }

func (sequentialEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	sr, err := resolveSemiring(cfg, in)
	if err != nil {
		return nil, err
	}
	res, err := seq.SolveSemiringCtx(ctx, in, sr)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Engine:      EngineSequential,
		Algebra:     sr.Name(),
		Table:       res.Table,
		Work:        res.Work,
		ConvergedAt: -1,
		instance:    in,
		splits:      res.Split,
		treeFn: func() (*Tree, error) {
			if !res.Feasible() {
				return nil, errors.New("sublineardp: no optimum to reconstruct (root is the algebra's Zero)")
			}
			return res.Tree(), nil
		},
	}, nil
}

// wavefrontEngine wraps the span-parallel baseline of internal/wavefront.
type wavefrontEngine struct{}

func (wavefrontEngine) Name() string { return EngineWavefront }

func (wavefrontEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	res, err := wavefront.SolveCtx(ctx, in, wavefront.Options{
		Workers:  cfg.Workers,
		Pool:     cfg.Pool,
		Semiring: cfg.Semiring,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Engine:      EngineWavefront,
		Algebra:     algebra.ResolveName(cfg.Semiring, in.Algebra),
		Table:       res.Table,
		Acct:        res.Acct,
		ConvergedAt: -1,
		instance:    in,
	}, nil
}

// rytterEngine wraps the 1988 pointer-doubling baseline of internal/rytter.
type rytterEngine struct{}

func (rytterEngine) Name() string { return EngineRytter }

func (rytterEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	res, err := rytter.SolveCtx(ctx, in, rytter.Options{
		Workers:       cfg.Workers,
		Pool:          cfg.Pool,
		MaxIterations: cfg.MaxIterations,
		Target:        cfg.Target,
		Semiring:      cfg.Semiring,
	})
	if err != nil {
		return nil, err
	}
	budget := cfg.MaxIterations
	if budget <= 0 {
		budget = rytter.DefaultIterations(in.N)
	}
	return &Solution{
		Engine:       EngineRytter,
		Algebra:      algebra.ResolveName(cfg.Semiring, in.Algebra),
		Table:        res.Table,
		Iterations:   res.Iterations,
		StoppedEarly: res.Iterations < budget,
		ConvergedAt:  res.ConvergedAt,
		Acct:         res.Acct,
		instance:     in,
	}, nil
}

// hlvEngine wraps the paper's algorithm (internal/core) in either storage
// variant, registered once per variant under its own name.
type hlvEngine struct {
	name    string
	variant core.Variant
}

func (e hlvEngine) Name() string { return e.name }

func (e hlvEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	res, err := core.SolveCtx(ctx, in, core.Options{
		Variant:       e.variant,
		Mode:          cfg.Mode,
		Termination:   cfg.Termination,
		Workers:       cfg.Workers,
		Pool:          cfg.Pool,
		TileSize:      cfg.TileSize,
		MaxIterations: cfg.MaxIterations,
		BandRadius:    cfg.BandRadius,
		Window:        cfg.Window,
		Target:        cfg.Target,
		History:       cfg.History,
		Semiring:      cfg.Semiring,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Engine:       e.name,
		Algebra:      algebra.ResolveName(cfg.Semiring, in.Algebra),
		Table:        res.Table,
		Iterations:   res.Iterations,
		StoppedEarly: res.StoppedEarly,
		ConvergedAt:  res.ConvergedAt,
		BandRadius:   res.BandRadius,
		Acct:         res.Acct,
		History:      res.History,
		instance:     in,
	}, nil
}

// blockedSolution shapes a blocked.Result into a Solution — shared by
// the tile engines and SolveBatch's overlapped group.
func blockedSolution(engine string, in *Instance, cfg *Config, res *blocked.Result) *Solution {
	sol := &Solution{
		Engine:      engine,
		Algebra:     algebra.ResolveName(cfg.Semiring, in.Algebra),
		Table:       res.Table,
		Acct:        res.Acct,
		Stats:       res.Stats,
		ConvergedAt: -1,
		instance:    in,
	}
	if res.Splits != nil {
		// WithSplits: O(n) reconstruction from the recorded matrix, the
		// same smallest-k choices as the sequential engine under every
		// algebra. An unreachable root records no split, which
		// TreeFromSplits reports as an error rather than a panic.
		sol.splits = res.Split
		sol.treeFn = func() (*Tree, error) {
			return recurrence.TreeFromSplits(in.N, res.Split)
		}
	}
	return sol
}

// blockedPipeEngine wraps the tile task graph of internal/blocked,
// registered under "blocked-pipe" and its alias "blocked". SolveBatch
// routes groups of tile-destined instances through
// blocked.SolvePipeBatchCtx so their graphs share one scheduler.
type blockedPipeEngine struct{ name string }

func (e blockedPipeEngine) Name() string { return e.name }

func (e blockedPipeEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	res, err := blocked.SolvePipeCtx(ctx, in, blocked.Options{
		Workers:      cfg.Workers,
		Pool:         cfg.Pool,
		TileSize:     cfg.TileSize,
		Semiring:     cfg.Semiring,
		RecordSplits: cfg.RecordSplits,
	})
	if err != nil {
		return nil, err
	}
	return blockedSolution(e.name, in, cfg, res), nil
}

// ErrConvexityRequired reports a solve that demanded Knuth-Yao pruning
// — the "blocked-ky" engine, or WithConvexity(true) — on an instance
// that is not eligible: it does not declare the convexity conditions
// (Instance.Convex) or its effective algebra is not min-plus, the only
// algebra the split-monotonicity theorem covers. Callers probing
// eligibility should test with errors.Is.
var ErrConvexityRequired = errors.New("sublineardp: Knuth-Yao pruning requires a declared-convex min-plus instance")

// blockedKYEngine wraps the Knuth-Yao pruned tile graph of
// internal/blocked: O(n^2) work on declared-convex min-plus instances,
// bitwise identical tables and splits to the unpruned engine.
type blockedKYEngine struct{}

func (blockedKYEngine) Name() string { return EngineBlockedKY }

func (blockedKYEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	if err := kyGate(cfg, in); err != nil {
		return nil, err
	}
	res, err := blocked.SolveKYCtx(ctx, in, blocked.Options{
		Workers:  cfg.Workers,
		Pool:     cfg.Pool,
		TileSize: cfg.TileSize,
		Semiring: cfg.Semiring,
	})
	if err != nil {
		return nil, err
	}
	return blockedSolution(EngineBlockedKY, in, cfg, res), nil
}

// kyGate reports ErrConvexityRequired for an instance the pruned engine
// cannot take — the check behind the blocked-ky engine, WithConvexity
// and SolveBatch's grouping. Gating here with the package sentinel,
// rather than relying on blocked.ErrNotConvex, gives the registry
// boundary one stable errors.Is target.
func kyGate(cfg *Config, in *Instance) error {
	if !in.Convex {
		return fmt.Errorf("%w (instance %q does not declare Convex)", ErrConvexityRequired, in.Name)
	}
	if name := algebra.ResolveName(cfg.Semiring, in.Algebra); name != algebra.NameMinPlus {
		return fmt.Errorf("%w (instance %q resolves to algebra %q)", ErrConvexityRequired, in.Name, name)
	}
	return nil
}

// autoEngine is the size-based meta-engine: small instances go to the
// sequential scan, larger ones to the pipelined blocked engine — under
// any algebra, since both targets are generic. The returned Solution
// names the engine actually chosen. Routing is purely by size and
// convexity: options are interpreted by the chosen engine, so the HLV
// iteration knobs (WithTermination, WithMaxIterations, WithHistory,
// WithTarget) never take effect here. Callers that need per-iteration
// instrumentation should name an HLV engine explicitly.
type autoEngine struct{}

func (autoEngine) Name() string { return EngineAuto }

func (autoEngine) Solve(ctx context.Context, in *Instance, cfg *Config) (*Solution, error) {
	return pickAuto(in, cfg).Solve(ctx, in, cfg)
}

// pickAuto resolves the auto engine's choice for an instance. Size sets
// the tier; a declared-convex min-plus instance above the sequential
// cutoff takes the Knuth-Yao pruned engine instead of the tile tier
// (its O(n^2) work dominates), and WithConvexity(true) forces the
// pruned engine at every size — Solve has already rejected ineligible
// instances by then.
func pickAuto(in *Instance, cfg *Config) Engine {
	name := pickAutoName(in, cfg)
	e, ok := LookupEngine(name)
	if !ok {
		// The built-ins are registered in init; this cannot fail.
		panic(fmt.Sprintf("sublineardp: built-in engine %q missing", name))
	}
	return e
}

// pickAutoName is pickAuto's routing table by registry name — also what
// SolveBatch consults to group tile-destined instances into one shared
// scheduler.
func pickAutoName(in *Instance, cfg *Config) string {
	n := in.N
	cutoff := cfg.AutoCutoff
	if cutoff <= 0 {
		cutoff = DefaultAutoCutoff
	}
	kyEligible := in.Convex && algebra.ResolveName(cfg.Semiring, in.Algebra) == algebra.NameMinPlus
	switch {
	case kyEligible && (cfg.Convexity || n > cutoff):
		return EngineBlockedKY
	case n <= cutoff:
		return EngineSequential
	default:
		return EngineBlockedPipe
	}
}
