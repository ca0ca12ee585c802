package sublineardp

import (
	"errors"
	"fmt"
	"time"

	"sublineardp/internal/algebra"
	"sublineardp/internal/pram"
	"sublineardp/internal/recurrence"
)

// Accounting is the PRAM cost-model ledger (time, work, processors)
// shared by every parallel engine, re-exported from internal/pram.
type Accounting = pram.Accounting

// Solution is the unified outcome of a Solver.Solve or SolveBatch run:
// one type for every engine, from the sequential O(n^3) baseline to the
// paper's banded HLV iteration. Fields that an engine does not produce
// are left at their zero value (for example Work is sequential-only and
// Iterations is zero for the single-pass baselines).
type Solution struct {
	// Engine is the registry name of the engine that produced this
	// solution ("sequential", "hlv-banded", ...). For the "auto"
	// meta-engine it names the engine actually chosen.
	Engine string

	// Algebra names the semiring the solve ran under ("min-plus" unless
	// the instance declared or WithSemiring selected another): the key to
	// interpreting Table's values (minimal cost, maximal cost, 0/1
	// feasibility, ...).
	Algebra string

	// Table holds the converged cost table c(i,j); Table.Root() is the
	// optimum, also available as Cost().
	Table *Table

	// Iterations is the number of parallel iterations executed (HLV and
	// Rytter engines; zero for single-pass engines).
	Iterations int

	// StoppedEarly reports that a stability termination rule fired
	// before the worst-case iteration budget was exhausted.
	StoppedEarly bool

	// ConvergedAt is the first iteration after which the table matched
	// WithTarget's reference, or -1 when no target was set or it never
	// matched.
	ConvergedAt int

	// BandRadius echoes the effective deficit bound D of a banded HLV
	// run (zero for every other engine).
	BandRadius int

	// Work counts candidate evaluations of the sequential baseline (the
	// quantity processor-time products are compared against); zero for
	// the parallel engines, whose cost lives in Acct.
	Work int64

	// Acct is the PRAM cost-model accounting (parallel engines only).
	Acct Accounting

	// Stats is the scheduler observability snapshot of the tile engines
	// ("blocked", "blocked-pipe", "blocked-ky"), which all run on one
	// task graph: executed tasks and drain-worker idle nanoseconds. The
	// Barriers and Steals counts are 0 — the graph never fences. Solves
	// of an overlapped SolveBatch group share one scheduler and report
	// its joint view. Zero for engines that do not run on the tile
	// scheduler.
	Stats PoolStats

	// History holds per-iteration statistics when WithHistory was set
	// and the engine records them (HLV engines only).
	History []IterStat

	// Elapsed is the wall-clock duration of the solve.
	Elapsed time.Duration

	// instance backs the lazy table reconstruction of Tree/Split; treeFn
	// and splits are the O(n) recorded-split fast paths the sequential
	// engine (always) and the blocked engine (WithSplits) provide.
	instance *Instance
	treeFn   func() (*Tree, error)
	splits   func(i, j int) int
}

// Cost returns the computed optimum c(0,n). On a solution without a
// table — the zero value, or an error-path partial — it returns the
// algebra's Zero ("no solution": Inf for min-plus, -Inf for max-plus, 0
// for bool-plan) instead of panicking.
func (s *Solution) Cost() Cost {
	if s == nil || s.Table == nil {
		if s != nil {
			if sr, ok := LookupSemiring(s.Algebra); ok {
				return sr.Zero()
			}
		}
		return Inf
	}
	return s.Table.Root()
}

// N returns the instance size the solution answers for, or 0 for a
// solution without a table (the zero value, or an error-path partial).
func (s *Solution) N() int {
	if s == nil || s.Table == nil {
		return 0
	}
	return s.Table.N
}

// Tree reconstructs an optimal parenthesization. The sequential engine
// (always) and the blocked engine (under WithSplits) recorded split
// points during the solve, so their reconstruction is an O(n)
// root-to-leaf walk under any algebra; every other solve recovers the
// tree lazily from the converged value table (the paper's algorithm
// computes values only) — n−1 span scans under the solve's registered
// algebra, not the eager all-spans sweep. It fails on an unreachable
// root (the algebra's Zero — no feasible tree exists) and if the table
// is not a fixed point of the recurrence — e.g. a run capped by
// WithMaxIterations before convergence.
func (s *Solution) Tree() (*Tree, error) {
	if s == nil {
		return nil, errors.New("sublineardp: Tree on a nil solution")
	}
	if s.treeFn != nil {
		return s.treeFn()
	}
	if s.Table == nil || s.instance == nil {
		return nil, errors.New("sublineardp: solution carries no instance to reconstruct from")
	}
	kern, ok := algebra.Lookup(s.Algebra)
	if !ok {
		return nil, fmt.Errorf("sublineardp: cannot reconstruct under unregistered algebra %q", s.Algebra)
	}
	return recurrence.ExtractTreeSemiring(s.instance, s.Table, kern)
}

// Split returns the optimal split point of node (i,j): the smallest k
// realising c(i,j), matching the sequential engine's tie-breaking. The
// sequential engine (always) and the blocked engine (under WithSplits)
// recorded their splits during the solve; every other solve recovers
// the split from the converged value table under the solve's registered
// algebra, exactly as Tree does. It returns -1 when the split is
// genuinely unavailable: leaves and out-of-range spans, an unreachable
// node (the algebra's Zero — saturated sums never fabricate a match),
// an unregistered algebra, or a table that is not a fixed point at
// (i,j) (e.g. a run capped by WithMaxIterations before convergence).
func (s *Solution) Split(i, j int) int {
	if s == nil || s.Table == nil || i < 0 || j > s.Table.N || j-i < 2 {
		return -1
	}
	if s.splits != nil {
		return s.splits(i, j)
	}
	if s.instance == nil {
		return -1
	}
	kern, ok := algebra.Lookup(s.Algebra)
	if !ok {
		return -1
	}
	target := kern.Norm(s.Table.At(i, j))
	if kern.IsZero(target) {
		return -1
	}
	for k := i + 1; k < j; k++ {
		v := kern.Extend3(s.instance.F(i, k, j), s.Table.At(i, k), s.Table.At(k, j))
		if !kern.IsZero(v) && kern.Norm(v) == target {
			return k
		}
	}
	return -1
}
