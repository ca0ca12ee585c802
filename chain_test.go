package sublineardp_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sublineardp"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
	"sublineardp/internal/wire"
	"sublineardp/internal/workload"
)

func TestChainSolverUnknownEngine(t *testing.T) {
	if _, err := sublineardp.NewChainSolver("no-such-chain-engine"); err == nil {
		t.Fatal("unknown chain engine accepted")
	}
}

func TestChainSolverRejectsInvalidChain(t *testing.T) {
	s := sublineardp.MustNewChainSolver("")
	if _, err := s.Solve(context.Background(), nil); err == nil {
		t.Fatal("nil chain accepted")
	}
	if _, err := s.Solve(context.Background(), &sublineardp.Chain{N: 0}); err == nil {
		t.Fatal("N=0 chain accepted")
	}
}

func TestChainAutoRouting(t *testing.T) {
	small := problems.RandomChain(10, 20, 0, 1)
	s := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto)
	sol, err := s.Solve(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Engine != sublineardp.ChainEngineSequential {
		t.Fatalf("auto routed n=10 to %q, want sequential", sol.Engine)
	}
	// Lowering the cutoff reroutes the same chain to the LLP engine.
	s = sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, sublineardp.WithAutoCutoff(4))
	if sol, err = s.Solve(context.Background(), small); err != nil {
		t.Fatal(err)
	}
	if sol.Engine != sublineardp.ChainEngineLLP {
		t.Fatalf("auto with cutoff 4 routed n=10 to %q, want llp", sol.Engine)
	}
}

// A chain that declares its support goes to the sequential scan at
// every n under its declared algebra: LLP has nothing left to
// parallelise. Dense chains, and support chains under an override that
// voids the claim, keep the size cutoff.
func TestChainAutoRoutesSupportChainsToSequential(t *testing.T) {
	const n = 1024
	xs, ys := problems.RandomSeries(n, 1)
	s, e, w := problems.RandomJobs(n, 1)
	auto := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, sublineardp.WithWorkers(2))
	minPlus := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, sublineardp.WithWorkers(2),
		sublineardp.WithSemiring(sublineardp.MinPlus))
	for _, tc := range []struct {
		solver *sublineardp.ChainSolver
		c      *sublineardp.Chain
		want   string
	}{
		{auto, problems.IntervalScheduling(s, e, w), sublineardp.ChainEngineSequential},
		{auto, workload.CoinFeasibility(n, 1), sublineardp.ChainEngineSequential},
		{auto, problems.SegmentedLeastSquares(xs, ys, 1000), sublineardp.ChainEngineLLP},
		{minPlus, problems.IntervalScheduling(s, e, w), sublineardp.ChainEngineLLP},
	} {
		sol, err := tc.solver.Solve(context.Background(), tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != tc.want {
			t.Errorf("auto routed %s under %s to %q, want %q", tc.c.Name, sol.Algebra, sol.Engine, tc.want)
		}
	}
}

// Folding only the declared support must be invisible: on wis and coin
// systems, across seeds and windows, every engine returns the dense
// scan's vector bitwise and its smallest-k path, while its work is the
// support count.
func TestChainSupportMatchesDenseScan(t *testing.T) {
	ctx := context.Background()
	engines := []struct {
		name    string
		workers int
	}{
		{sublineardp.ChainEngineSequential, 1},
		{sublineardp.ChainEngineLLP, 1},
		{sublineardp.ChainEngineLLP, 3},
	}
	for seed := int64(0); seed < 8; seed++ {
		n := 10 + int(seed)*13
		s, e, w := problems.RandomJobs(n, seed)
		for _, window := range []int{0, 1, 3, 7} {
			for _, c := range []*sublineardp.Chain{
				problems.IntervalScheduling(s, e, w),
				problems.SubsetSum(int64(n), workload.CoinSystem(int64(n), seed)),
			} {
				c.Window = window
				dense := seq.SolveChain(c)
				var admitted int64
				for j := 1; j <= c.N; j++ {
					admitted += int64(j - c.Lo(j))
				}
				if dense.Work != admitted {
					t.Fatalf("%s window=%d: seq.SolveChain folded %d candidates, the window admits %d — not dense",
						c.Name, window, dense.Work, admitted)
				}
				for _, eng := range engines {
					label := fmt.Sprintf("%s window=%d %s/w%d", c.Name, window, eng.name, eng.workers)
					sol, err := sublineardp.MustNewChainSolver(eng.name, sublineardp.WithWorkers(eng.workers)).Solve(ctx, c)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(sol.Values.Data(), dense.Values.Data()) {
						t.Fatalf("%s: vector differs from the dense scan: %v", label, sol.Values.Diff(dense.Values, 3))
					}
					if sol.Work != c.NumCandidates() || sol.Work > dense.Work {
						t.Fatalf("%s: work %d, support %d, dense %d", label, sol.Work, c.NumCandidates(), dense.Work)
					}
					if !dense.Feasible() {
						continue
					}
					path, err := sol.Path()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want := dense.Path(); !reflect.DeepEqual(path, want) {
						t.Fatalf("%s: path %v, dense scan %v", label, path, want)
					}
				}
			}
		}
	}
}

// An algebra override voids the support claim: a min-plus wis solve
// folds the full window on every engine and matches the dense scan
// under that override.
func TestChainOverrideFoldsFullWindow(t *testing.T) {
	const n = 600
	s, e, w := problems.RandomJobs(n, 3)
	c := problems.IntervalScheduling(s, e, w)
	stripped := *c
	stripped.Support = nil
	want, err := seq.SolveChainSemiringCtx(context.Background(), &stripped, sublineardp.MinPlus)
	if err != nil {
		t.Fatal(err)
	}
	if want.Work != n*(n+1)/2 {
		t.Fatalf("dense min-plus work %d, want %d", want.Work, n*(n+1)/2)
	}
	for _, name := range sublineardp.ChainEngines() {
		sol, err := sublineardp.MustNewChainSolver(name, sublineardp.WithWorkers(2),
			sublineardp.WithSemiring(sublineardp.MinPlus)).Solve(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Work != want.Work {
			t.Errorf("engine %s: min-plus work %d, dense %d", name, sol.Work, want.Work)
		}
		if !sol.Values.Equal(want.Values) {
			t.Errorf("engine %s: min-plus vector differs: %v", name, sol.Values.Diff(want.Values, 3))
		}
	}
}

// Path on an llp solution recovers the predecessors by scanning: the
// support for wis and subset sum, the FRow-evaluated window for segls.
// Its digest must be the sequential engine's recorded-predecessor one.
func TestChainPathDigestMatchesRecordedPredecessors(t *testing.T) {
	const n = 300
	xs, ys := problems.RandomSeries(n, 5)
	s, e, w := problems.RandomJobs(n, 5)
	llpSolver := sublineardp.MustNewChainSolver(sublineardp.ChainEngineLLP, sublineardp.WithWorkers(2))
	for _, c := range []*sublineardp.Chain{
		problems.SegmentedLeastSquares(xs, ys, 1000),
		problems.IntervalScheduling(s, e, w),
		workload.CoinFeasibility(n, 1),
	} {
		want := seq.SolveChain(c)
		if !want.Feasible() {
			t.Fatalf("%s: fixture infeasible", c.Name)
		}
		sol, err := llpSolver.Solve(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		path, err := sol.Path()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wire.PathDigest(path), wire.PathDigest(want.Path()); got != want {
			t.Errorf("%s: llp path digest %s, recorded predecessors %s", c.Name, got, want)
		}
	}
}

func TestChainEnginesRegistered(t *testing.T) {
	got := sublineardp.ChainEngines()
	for _, want := range []string{"auto", "llp", "sequential"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("chain engine %q missing from registry %v", want, got)
		}
	}
}

func TestChainPathAgreesAcrossEngines(t *testing.T) {
	xs, ys := problems.RandomSeries(30, 9)
	c := problems.SegmentedLeastSquares(xs, ys, 800)
	ctx := context.Background()
	seqSol, err := sublineardp.MustNewChainSolver(sublineardp.ChainEngineSequential).Solve(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	llpSol, err := sublineardp.MustNewChainSolver(sublineardp.ChainEngineLLP, sublineardp.WithWorkers(3)).Solve(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	wantPath, err := seqSol.Path()
	if err != nil {
		t.Fatal(err)
	}
	gotPath, err := llpSol.Path()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatalf("llp path %v, sequential path %v", gotPath, wantPath)
	}
	if gotPath[0] != 0 || gotPath[len(gotPath)-1] != c.N {
		t.Fatalf("path %v does not span 0..%d", gotPath, c.N)
	}
}

func TestChainSolutionNilSafety(t *testing.T) {
	var s *sublineardp.ChainSolution
	if s.Cost() != sublineardp.Inf {
		t.Fatalf("nil solution Cost = %d, want Inf", s.Cost())
	}
	if s.N() != 0 {
		t.Fatalf("nil solution N = %d, want 0", s.N())
	}
	if s.Feasible() {
		t.Fatal("nil solution reports feasible")
	}
	zero := &sublineardp.ChainSolution{Algebra: "max-plus"}
	if sr, _ := sublineardp.LookupSemiring("max-plus"); zero.Cost() != sr.Zero() {
		t.Fatalf("vectorless max-plus solution Cost = %d, want the algebra's Zero", zero.Cost())
	}
}
