package sublineardp_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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

// Auto sends a dense chain above the cutoff to the tiled engine when the
// solve gets two or more workers, and everything else to the sequential
// scan: short chains, chains on one worker, and — whatever the cutoff —
// chains of at most 64 indices.
func TestChainAutoRouting(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n      int
		opts   []sublineardp.Option
		want   string
		reason string
	}{
		{100, []sublineardp.Option{sublineardp.WithWorkers(2)}, sublineardp.ChainEngineSequential, "at the default cutoff"},
		{100, []sublineardp.Option{sublineardp.WithWorkers(2), sublineardp.WithAutoCutoff(80)}, sublineardp.ChainEngineTiled, "above a lowered cutoff"},
		{100, []sublineardp.Option{sublineardp.WithWorkers(1), sublineardp.WithAutoCutoff(80)}, sublineardp.ChainEngineSequential, "on one worker"},
		{60, []sublineardp.Option{sublineardp.WithWorkers(2), sublineardp.WithAutoCutoff(4)}, sublineardp.ChainEngineSequential, "below the 64-index floor"},
		{600, []sublineardp.Option{sublineardp.WithWorkers(2)}, sublineardp.ChainEngineTiled, "above the default cutoff"},
		{600, []sublineardp.Option{sublineardp.WithWorkers(1)}, sublineardp.ChainEngineSequential, "above the default cutoff on one worker"},
	} {
		c := problems.RandomChain(tc.n, 20, 0, 1)
		sol, err := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, tc.opts...).Solve(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.want
		if runtime.GOMAXPROCS(0) < 2 {
			want = sublineardp.ChainEngineSequential // two workers cap at one processor
		}
		if sol.Engine != want {
			t.Errorf("auto routed n=%d %s to %q, want %q", tc.n, tc.reason, sol.Engine, want)
		}
	}
}

// A chain that declares its support goes to the sequential scan at
// every n under its declared algebra: its fold has nothing to tile.
// Dense chains, and support chains under an override that voids the
// claim, keep the size cutoff: the tiled engine on two workers, the
// sequential scan on one.
func TestChainAutoRoutesSupportChainsToSequential(t *testing.T) {
	const n = 1024
	xs, ys := problems.RandomSeries(n, 1)
	s, e, w := problems.RandomJobs(n, 1)
	dense := sublineardp.ChainEngineTiled
	if runtime.GOMAXPROCS(0) < 2 {
		dense = sublineardp.ChainEngineSequential // two workers cap at one processor
	}
	for _, workers := range []int{2, 1} {
		auto := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, sublineardp.WithWorkers(workers))
		minPlus := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, sublineardp.WithWorkers(workers),
			sublineardp.WithSemiring(sublineardp.MinPlus))
		if workers == 1 {
			dense = sublineardp.ChainEngineSequential
		}
		for _, tc := range []struct {
			solver *sublineardp.ChainSolver
			c      *sublineardp.Chain
			want   string
		}{
			{auto, problems.IntervalScheduling(s, e, w), sublineardp.ChainEngineSequential},
			{auto, workload.CoinFeasibility(n, 1), sublineardp.ChainEngineSequential},
			{auto, problems.SegmentedLeastSquares(xs, ys, 1000), dense},
			{minPlus, problems.IntervalScheduling(s, e, w), dense},
		} {
			sol, err := tc.solver.Solve(context.Background(), tc.c)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Engine != tc.want {
				t.Errorf("auto on %d workers routed %s under %s to %q, want %q",
					workers, tc.c.Name, sol.Algebra, sol.Engine, tc.want)
			}
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
		{sublineardp.ChainEngineTiled, 2},
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
	for _, want := range []string{"auto", "llp", "sequential", "tiled"} {
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

// Path on an auto solution is a walk of recorded predecessors: with F
// and FRow of a segls n=1024 chain wrapped in counters, Path evaluates
// no transition weight on any route auto takes (the tiled engine on two
// workers, the sequential scan on one), and its digest is the
// sequential engine's.
func TestChainAutoPathEvaluatesNoTransition(t *testing.T) {
	const n = 1024
	xs, ys := problems.RandomSeries(n, 7)
	c := problems.SegmentedLeastSquares(xs, ys, 2500)
	var calls atomic.Int64
	f, fRow := c.F, c.FRow
	c.F = func(k, j int) sublineardp.Cost { calls.Add(1); return f(k, j) }
	c.FRow = func(j, k0 int, dst []sublineardp.Cost) { calls.Add(1); fRow(j, k0, dst) }
	want := wire.PathDigest(seq.SolveChain(c).Path())
	for _, workers := range []int{2, 1} {
		sol, err := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, sublineardp.WithWorkers(workers)).
			Solve(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		calls.Store(0)
		path, err := sol.Path()
		if err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != 0 {
			t.Errorf("Path on the %s solution made %d F/FRow calls, want 0", sol.Engine, got)
		}
		if got := wire.PathDigest(path); got != want {
			t.Errorf("%s path digest %s, sequential %s", sol.Engine, got, want)
		}
	}
}

// Cancelling a tiled solve mid-run on a shared pool returns ctx.Err()
// and no solution, while a sibling tiled solve on the same pool finishes
// bitwise equal to the sequential scan.
func TestTiledChainCancellationOnSharedPool(t *testing.T) {
	pool := sublineardp.NewPool(2)
	defer pool.Close()
	xs, ys := problems.RandomSeries(4096, 3)
	big := problems.SegmentedLeastSquares(xs, ys, 2500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// At B = 64 the solve makes about n²/(2B) FRow calls, one per index
	// and block of its window. Cancel from inside once a quarter are in.
	const allRows = 4096 * 4096 / (2 * 64)
	var rows atomic.Int64
	fRow := big.FRow
	big.FRow = func(j, k0 int, dst []sublineardp.Cost) {
		if rows.Add(1) == allRows/4 {
			cancel()
		}
		fRow(j, k0, dst)
	}
	xs2, ys2 := problems.RandomSeries(1024, 4)
	small := problems.SegmentedLeastSquares(xs2, ys2, 2500)
	want := seq.SolveChain(small)

	opts := []sublineardp.Option{sublineardp.WithPool(pool), sublineardp.WithWorkers(2), sublineardp.WithTileSize(64)}
	solver := sublineardp.MustNewChainSolver(sublineardp.ChainEngineTiled, opts...)
	var wg sync.WaitGroup
	var sibling *sublineardp.ChainSolution
	var siblingErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sibling, siblingErr = solver.Solve(context.Background(), small)
	}()
	sol, err := solver.Solve(ctx, big)
	wg.Wait()
	if !errors.Is(err, context.Canceled) || sol != nil {
		t.Fatalf("cancelled solve returned (%v, %v), want (nil, context.Canceled)", sol, err)
	}
	if rows.Load() >= allRows/2 {
		t.Errorf("cancelled solve ran %d FRow rows, about every row of the chain", rows.Load())
	}
	if siblingErr != nil {
		t.Fatalf("sibling solve: %v", siblingErr)
	}
	if !sibling.Values.Equal(want.Values) || sibling.Work != want.Work {
		t.Fatalf("sibling vector or work differs from the sequential scan: %v", sibling.Values.Diff(want.Values, 3))
	}
	path, err := sibling.Path()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, want.Path()) {
		t.Fatalf("sibling path differs from the sequential scan")
	}
}
