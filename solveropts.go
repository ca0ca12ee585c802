package sublineardp

import (
	"sublineardp/internal/algebra"
	"sublineardp/internal/core"
	"sublineardp/internal/parutil"
)

// Re-exported enum types, so functional options can be used without
// importing internal packages.
type (
	// Mode selects the update discipline (Synchronous | Chaotic).
	Mode = core.Mode
	// Termination selects the stopping rule (FixedIterations | WStable |
	// WPWStable).
	Termination = core.Termination
	// Semiring is an idempotent semiring over Cost values — the algebra
	// every engine evaluates recurrence (*) over (WithSemiring; min-plus
	// by default). Third-party algebras implement it and are admitted
	// with RegisterSemiring, which validates the semiring axioms.
	Semiring = algebra.Semiring
	// IterStat is one iteration's summary, recorded under WithHistory.
	IterStat = core.IterStat
	// Pool is a persistent worker pool solves dispatch their parallel
	// kernels onto (WithPool); one Pool can be shared by many concurrent
	// solves. Build one with NewPool.
	Pool = parutil.Pool
	// PoolStats is a per-solve scheduler observability snapshot (executed
	// tasks and idle nanoseconds; barrier and steal counts are 0 on every
	// shipped engine), exposed as Solution.Stats by the tile engines.
	PoolStats = parutil.StatsView
)

// NewPool returns a persistent worker pool of the given width
// (0 = GOMAXPROCS) for WithPool. Solves that are not given a pool share
// a process-wide default, so NewPool is only needed to isolate or size a
// runtime explicitly; call Close to release its goroutines.
func NewPool(width int) *Pool { return parutil.NewPool(width) }

// The three semirings shipped with the repository, usable with
// WithSemiring. MinPlus is the paper's algebra and the default; MaxPlus
// maximises total weight (worst-case parenthesization); BoolPlan decides
// feasibility over 0/1 values (forbidden-split planning).
var (
	MinPlus  Semiring = algebra.MinPlus{}
	MaxPlus  Semiring = algebra.MaxPlus{}
	BoolPlan Semiring = algebra.BoolPlan{}
)

// RegisterSemiring admits a third-party algebra to the registry after
// mechanically validating the idempotent-semiring axioms (idempotence,
// commutativity, associativity, identities, absorption, distributivity,
// monotonicity) by randomised property testing — a lawless algebra is
// rejected here rather than silently mis-solved. Registered algebras are
// resolvable by name from Instance.Algebra and the wire `semiring`
// option, and are exercised by the engine conformance matrix.
func RegisterSemiring(sr Semiring) error { return algebra.Register(sr) }

// Semirings returns the sorted names of every registered algebra.
func Semirings() []string { return algebra.Names() }

// LookupSemiring resolves a registered algebra by name ("" = min-plus).
func LookupSemiring(name string) (Semiring, bool) {
	k, ok := algebra.Lookup(name)
	if !ok {
		return nil, false
	}
	return k, true
}

// Config carries every knob a Solve or SolveBatch run can set. Engines
// receive it read-only; third-party engines registered with
// RegisterEngine may interpret (or ignore) any field. The zero value is
// a valid default configuration.
type Config struct {
	// Engine is the registry name to solve with ("" = "auto"). NewSolver's
	// positional engine argument takes precedence when both are given.
	Engine string

	// Workers is the goroutine count per solve (0 = GOMAXPROCS).
	// SolveBatch defaults it to 1 so batch-level parallelism is not
	// oversubscribed by intra-solve parallelism.
	Workers int

	// Pool is the persistent worker pool the HLV engines dispatch their
	// a-activate/a-square/a-pebble kernels onto (nil = the process-wide
	// shared pool). SolveBatch threads one pool through every solve of a
	// batch.
	Pool *Pool

	// TileSize is the kernels' scheduling tile: how many (i,j) cells of
	// the iteration space one worker claims at a time (0 = a
	// load-balancing heuristic). Smaller tiles approximate more,
	// finer-grained PRAM processors; larger tiles trade balance for
	// lower scheduling overhead.
	TileSize int

	// Mode is the HLV update discipline (Synchronous | Chaotic).
	Mode Mode

	// Termination is the HLV stopping rule.
	Termination Termination

	// MaxIterations caps the iteration count of the iterative engines
	// (0 = engine's worst-case budget).
	MaxIterations int

	// BandRadius overrides the banded HLV deficit bound D
	// (0 = 2*ceil(sqrt n)).
	BandRadius int

	// Window enables the Section 5 windowed pebble schedule (banded HLV).
	Window bool

	// History records per-iteration statistics in Solution.History
	// (HLV engines).
	History bool

	// Target, when non-nil, is a known-correct table; iterative engines
	// record in Solution.ConvergedAt the first iteration after which
	// their table matches it. Never affects control flow.
	Target *Table

	// Semiring overrides the algebra every engine evaluates the
	// recurrence over (nil = the instance's declared algebra, min-plus
	// by default).
	Semiring Semiring

	// Concurrency bounds how many instances SolveBatch solves at once
	// (0 = GOMAXPROCS). Ignored by single solves.
	Concurrency int

	// AutoCutoff is the instance size above which the "auto" engine
	// sends a declared-convex min-plus instance to "blocked-ky" instead
	// of "blocked-pipe" (0 = DefaultAutoCutoff).
	AutoCutoff int

	// Convexity demands the Knuth-Yao pruned path: Solve fails with
	// ErrConvexityRequired unless the instance declares the convexity
	// conditions (Instance.Convex) under min-plus, and the "auto" engine
	// routes eligible instances to "blocked-ky" at every size. Off, auto
	// still *prefers* the pruned engine for eligible instances above
	// AutoCutoff — this knob turns that preference into a contract.
	Convexity bool

	// RecordSplits asks the engine to record optimal split points during
	// the solve, making Solution.Tree and Solution.Split O(n)
	// reconstructions instead of table re-scans. Honoured by the blocked
	// engine (one packed int32 matrix, 2·n(n+1) bytes, plus one compare+store
	// per candidate — the value table stays bitwise identical); the
	// sequential engine always records; other engines ignore it and fall
	// back to lazy table reconstruction.
	RecordSplits bool
}

// DefaultAutoCutoff is the default Knuth-Yao threshold of the "auto"
// engine: declared-convex min-plus instances above n = 64 take the
// pruned blocked-ky engine, smaller ones blocked-pipe.
const DefaultAutoCutoff = 64

// Option configures a Solver, a single Solve call, or a SolveBatch run.
type Option func(*Config)

// WithEngine selects the engine by registry name ("" = "auto"). Mostly
// useful with SolveBatch, which has no positional engine argument.
func WithEngine(name string) Option { return func(c *Config) { c.Engine = name } }

// WithWorkers sets the goroutine count used inside one solve
// (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithPool dispatches the solve's parallel kernels onto the given
// persistent pool (nil = the process-wide shared pool). Sharing one pool
// across many solves — what SolveBatch does — reuses its goroutines
// instead of spawning per solve.
func WithPool(p *Pool) Option { return func(c *Config) { c.Pool = p } }

// WithTileSize sets the kernels' scheduling tile — the number of (i,j)
// cells one worker claims at a time (0 = heuristic). It is the practical
// analogue of the paper's processor-count knob: smaller tiles emulate
// more, finer-grained PRAM processors.
func WithTileSize(t int) Option { return func(c *Config) { c.TileSize = t } }

// WithMode selects the HLV update discipline (Synchronous | Chaotic).
func WithMode(m Mode) Option { return func(c *Config) { c.Mode = m } }

// WithTermination selects the HLV stopping rule (FixedIterations |
// WStable | WPWStable).
func WithTermination(t Termination) Option { return func(c *Config) { c.Termination = t } }

// WithMaxIterations caps the iterative engines' iteration count
// (0 = worst-case budget).
func WithMaxIterations(n int) Option { return func(c *Config) { c.MaxIterations = n } }

// WithBandRadius overrides the banded HLV deficit bound D
// (0 = 2*ceil(sqrt n)).
func WithBandRadius(d int) Option { return func(c *Config) { c.BandRadius = d } }

// WithWindow toggles the Section 5 windowed pebble schedule (banded HLV).
func WithWindow(on bool) Option { return func(c *Config) { c.Window = on } }

// WithHistory toggles per-iteration statistics in Solution.History.
func WithHistory(on bool) Option { return func(c *Config) { c.History = on } }

// WithTarget supplies a known-correct table for convergence tracking
// (Solution.ConvergedAt).
func WithTarget(t *Table) Option { return func(c *Config) { c.Target = t } }

// WithSemiring selects the algebra the recurrence is evaluated over —
// honoured by every engine, from the sequential scan to the banded tiled
// kernels (nil = the instance's declared algebra, min-plus by default).
func WithSemiring(sr Semiring) Option { return func(c *Config) { c.Semiring = sr } }

// WithConcurrency bounds how many instances SolveBatch works on at once
// (0 = GOMAXPROCS).
func WithConcurrency(n int) Option { return func(c *Config) { c.Concurrency = n } }

// WithAutoCutoff sets the instance size above which the "auto" engine
// (and SolveBatch's default scheduling) sends declared-convex min-plus
// instances to blocked-ky (0 = DefaultAutoCutoff).
func WithAutoCutoff(n int) Option { return func(c *Config) { c.AutoCutoff = n } }

// WithConvexity demands the Knuth-Yao pruned path: the solve fails with
// ErrConvexityRequired unless the instance declares Instance.Convex and
// resolves to min-plus, and the "auto" engine routes eligible instances
// to the O(n^2)-work "blocked-ky" engine at every size. Use it when an
// O(n^3) fallback would be a performance bug rather than a slow
// success.
func WithConvexity(on bool) Option { return func(c *Config) { c.Convexity = on } }

// WithSplits asks the engine to record optimal split points during the
// solve, so Solution.Tree/Split reconstruct in O(n) instead of
// re-scanning the table — the option that makes solution paths practical
// at the sizes only the blocked engine can load. See
// Config.RecordSplits for cost and engine coverage.
func WithSplits(on bool) Option { return func(c *Config) { c.RecordSplits = on } }

func buildConfig(opts []Option) Config {
	var cfg Config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}
