package sublineardp_test

import (
	"context"
	"errors"
	"testing"

	"sublineardp"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
)

// A zero-value or error-path Solution has no table; Cost and N must
// answer with the documented sentinels instead of panicking
// (solution.go used to dereference Table unconditionally).
func TestSolutionNilTableGuards(t *testing.T) {
	var zero sublineardp.Solution
	if got := zero.Cost(); got != sublineardp.Inf {
		t.Errorf("zero Solution.Cost() = %d, want Inf", got)
	}
	if got := zero.N(); got != 0 {
		t.Errorf("zero Solution.N() = %d, want 0", got)
	}
	if got := zero.Split(0, 2); got != -1 {
		t.Errorf("zero Solution.Split = %d, want -1", got)
	}

	// The sentinel is algebra-aware: "no solution" is the algebra's Zero.
	maxPlus := sublineardp.Solution{Algebra: "max-plus"}
	if got := maxPlus.Cost(); got != sublineardp.MaxPlus.Zero() {
		t.Errorf("max-plus tableless Cost() = %d, want %d", got, sublineardp.MaxPlus.Zero())
	}
	boolPlan := sublineardp.Solution{Algebra: "bool-plan"}
	if got := boolPlan.Cost(); got != 0 {
		t.Errorf("bool-plan tableless Cost() = %d, want 0", got)
	}
	unknown := sublineardp.Solution{Algebra: "no-such-algebra"}
	if got := unknown.Cost(); got != sublineardp.Inf {
		t.Errorf("unknown-algebra tableless Cost() = %d, want the Inf fallback", got)
	}
}

// Split must answer from the converged table on every engine — the
// parallel engines compute values only, but the min-plus table pins the
// smallest realising split exactly like the sequential recording, so
// the answers coincide across the whole registry.
func TestSolutionSplitAcrossEngines(t *testing.T) {
	in := problems.RandomMatrixChain(20, 60, 4)
	want := seq.Solve(in)
	ctx := context.Background()
	for _, name := range sublineardp.Engines() {
		if _, skip := nonconformingFixtures[name]; skip {
			continue
		}
		sol, err := sublineardp.MustNewSolver(name).Solve(ctx, in)
		if err != nil {
			if errors.Is(err, sublineardp.ErrConvexityRequired) && !in.Convex {
				continue // the pruned engine refuses non-convex instances
			}
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i <= in.N; i++ {
			for j := i + 2; j <= in.N; j++ {
				if got, exp := sol.Split(i, j), want.Split(i, j); got != exp {
					t.Errorf("%s: Split(%d,%d) = %d, sequential recorded %d", name, i, j, got, exp)
				}
			}
			if i < in.N {
				if got := sol.Split(i, i+1); got != -1 {
					t.Errorf("%s: leaf Split(%d,%d) = %d, want -1", name, i, i+1, got)
				}
			}
		}
	}
}

// The table fallback must degrade to -1 — never a wrong split, never a
// panic — whenever the span is genuinely unavailable, and now answers
// under every registered algebra (it was min-plus only).
func TestSolutionSplitUnavailable(t *testing.T) {
	in := problems.RandomMatrixChain(12, 40, 8)
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineBlocked,
		sublineardp.WithSemiring(sublineardp.MaxPlus)).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	seqMax, err := sublineardp.MustNewSolver(sublineardp.EngineSequential,
		sublineardp.WithSemiring(sublineardp.MaxPlus)).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sol.Split(0, in.N), seqMax.Split(0, in.N); got != want {
		t.Errorf("max-plus table-based Split = %d, sequential recorded %d", got, want)
	}
	// Out-of-range spans return -1 on both the table path and the
	// recorded-splits path (the latter used to index out of range).
	minSol, err := sublineardp.MustNewSolver(sublineardp.EngineBlocked).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	seqMin, err := sublineardp.MustNewSolver(sublineardp.EngineSequential).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*sublineardp.Solution{minSol, seqMin} {
		for _, span := range [][2]int{{-1, 3}, {0, in.N + 1}, {3, 3}, {5, 4}, {-2, in.N + 9}} {
			if got := s.Split(span[0], span[1]); got != -1 {
				t.Errorf("%s: Split(%d,%d) = %d, want -1", s.Engine, span[0], span[1], got)
			}
		}
	}
	// The sequential engine keeps answering from its recorded splits on
	// any algebra.
	if got := seqMax.Split(0, in.N); got < 1 || got >= in.N {
		t.Errorf("sequential max-plus Split = %d, want a real split", got)
	}
}
