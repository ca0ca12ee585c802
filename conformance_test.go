package sublineardp_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
	"sublineardp/internal/workload"
)

// The cross-engine conformance suite: every registered engine — built-in
// or third-party via RegisterEngine — must, on every problem generator in
// internal/problems, produce the sequential optimum and a table that is
// the exact fixed point of recurrence (*) under the solver-independent
// verifier. This is the contract README documents for custom engines:
// register, run `go test -run TestEngineConformance`, and the engine is
// held to the same gate as the shipped ones.
//
// Engines registered by other tests as deliberate counterexamples (they
// exist to prove the registry dispatches, not to solve) are exempted by
// name here; a real engine must never be added to this map.
var nonconformingFixtures = map[string]string{
	"test-const": "registry-dispatch fixture of solver_test.go; returns a constant",
}

// conformanceInstances spans every generator family: the named problems
// (matrixchain, obst, triangulation), the shaped adversarial instances,
// and unstructured random ones. Sizes stay small enough for the O(n^4)
// dense engine while still crossing the banded engine's D = 2*ceil(sqrt
// n) boundary.
func conformanceInstances() []*sublineardp.Instance {
	return []*sublineardp.Instance{
		problems.MatrixChain([]int{30, 35, 15, 5, 10, 20, 25}),
		problems.RandomMatrixChain(24, 60, 3),
		problems.RandomOBST(18, 40, 5),
		problems.Triangulation(problems.RandomConvexPolygon(16, 1000, 7)),
		problems.Zigzag(21),
		problems.Balanced(16),
		problems.RandomShaped(15, 11),
		problems.RandomInstance(19, 80, 9),
	}
}

func TestEngineConformance(t *testing.T) {
	instances := conformanceInstances()
	type want struct {
		cost  sublineardp.Cost
		table *sublineardp.Table
	}
	wants := make([]want, len(instances))
	for i, in := range instances {
		res := seq.Solve(in)
		if rep := verify.Table(in, res.Table); !rep.OK() {
			t.Fatalf("reference table for %s fails verification: %v", in.Name, rep.Err())
		}
		wants[i] = want{cost: res.Cost(), table: res.Table}
	}

	ctx := context.Background()
	for _, name := range sublineardp.Engines() {
		if why, skip := nonconformingFixtures[name]; skip {
			t.Logf("engine %q exempt: %s", name, why)
			continue
		}
		t.Run(fmt.Sprintf("engine=%s", name), func(t *testing.T) {
			solver, err := sublineardp.NewSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range instances {
				sol, err := solver.Solve(ctx, in)
				if err != nil {
					if errors.Is(err, sublineardp.ErrConvexityRequired) && !in.Convex {
						// The Knuth-Yao engine's contract is to refuse
						// instances that do not declare convexity; on a
						// declared one (RandomOBST above) it must solve.
						continue
					}
					t.Fatalf("%s: %v", in.Name, err)
				}
				if sol.Cost() != wants[i].cost {
					t.Errorf("%s: cost %d, sequential optimum %d", in.Name, sol.Cost(), wants[i].cost)
				}
				if rep := verify.Table(in, sol.Table); !rep.OK() {
					t.Errorf("%s: table is not a fixed point of the recurrence: %v", in.Name, rep.Err())
				}
			}
		})
	}
}

// The engine × generator × semiring matrix: every registered engine must
// solve every generator family under every registered algebra to the
// same optimum as the generic sequential reference, and its table must
// be the exact fixed point of the recurrence under that algebra
// (verify.TableSemiring — solver-independent, like verify.Table). This
// is the contract that makes WithSemiring safe on any engine, and it
// runs against the registry, so a third-party algebra admitted by
// RegisterSemiring is held to it automatically.
//
// The matrix instances are smaller than conformanceInstances: the
// O(n^6)-work rytter engine appears |algebras| times here.
func TestEngineSemiringConformance(t *testing.T) {
	instances := []*sublineardp.Instance{
		problems.MatrixChain([]int{30, 35, 15, 5, 10, 20, 25}),
		problems.RandomOBST(12, 40, 5),
		problems.RandomShaped(13, 11),
		problems.RandomInstance(15, 80, 9),
	}
	ctx := context.Background()
	for _, algName := range sublineardp.Semirings() {
		sr, ok := sublineardp.LookupSemiring(algName)
		if !ok {
			t.Fatalf("registered semiring %q not resolvable", algName)
		}
		wants := make([]*seq.Result, len(instances))
		for i, in := range instances {
			res, err := seq.SolveSemiringCtx(ctx, in, sr)
			if err != nil {
				t.Fatal(err)
			}
			if rep := verify.TableSemiring(sr, in, res.Table); !rep.OK() {
				t.Fatalf("%s/%s: reference fails verification: %v", algName, in.Name, rep.Err())
			}
			wants[i] = res
		}
		for _, name := range sublineardp.Engines() {
			if _, skip := nonconformingFixtures[name]; skip {
				continue
			}
			t.Run(fmt.Sprintf("algebra=%s/engine=%s", algName, name), func(t *testing.T) {
				solver, err := sublineardp.NewSolver(name, sublineardp.WithSemiring(sr))
				if err != nil {
					t.Fatal(err)
				}
				for i, in := range instances {
					sol, err := solver.Solve(ctx, in)
					if err != nil {
						if errors.Is(err, sublineardp.ErrConvexityRequired) &&
							(!in.Convex || algName != "min-plus") {
							// Refusal is the conforming outcome off the
							// convex min-plus diagonal of the matrix.
							continue
						}
						t.Fatalf("%s: %v", in.Name, err)
					}
					if sol.Algebra != algName {
						t.Errorf("%s: solution algebra %q, want %q", in.Name, sol.Algebra, algName)
					}
					if sol.Cost() != wants[i].Cost() {
						t.Errorf("%s: optimum %d, sequential reference %d", in.Name, sol.Cost(), wants[i].Cost())
					}
					if rep := verify.TableSemiring(sr, in, sol.Table); !rep.OK() {
						t.Errorf("%s: table is not a fixed point under %s: %v", in.Name, algName, rep.Err())
					}
				}
			})
		}
	}
}

// The intrinsically non-min-plus families must route by their declared
// Instance.Algebra with no WithSemiring at all, through every engine.
func TestDeclaredAlgebraRoutesWithoutOverride(t *testing.T) {
	instances := []*sublineardp.Instance{
		problems.WorstCaseMatrixChain([]int{30, 35, 15, 5, 10, 20, 25}),
		workload.FeasibilityPlan(14, 3),
		workload.WorstCaseChain(12, 5),
	}
	ctx := context.Background()
	for _, in := range instances {
		want, err := seq.SolveSemiringCtx(ctx, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sublineardp.Engines() {
			if _, skip := nonconformingFixtures[name]; skip {
				continue
			}
			solver := sublineardp.MustNewSolver(name)
			sol, err := solver.Solve(ctx, in)
			if err != nil {
				if errors.Is(err, sublineardp.ErrConvexityRequired) &&
					(!in.Convex || (in.Algebra != "" && in.Algebra != "min-plus")) {
					continue
				}
				t.Fatalf("%s/%s: %v", name, in.Name, err)
			}
			if sol.Algebra != in.Algebra {
				t.Errorf("%s/%s: algebra %q, want declared %q", name, in.Name, sol.Algebra, in.Algebra)
			}
			if sol.Cost() != want.Cost() {
				t.Errorf("%s/%s: optimum %d, reference %d", name, in.Name, sol.Cost(), want.Cost())
			}
			if rep := verify.TableSemiring(nil, in, sol.Table); !rep.OK() {
				t.Errorf("%s/%s: not a fixed point: %v", name, in.Name, rep.Err())
			}
		}
	}
}

// Every registered algebra must satisfy the semiring laws — part of the
// conformance contract: RegisterSemiring enforces it at admission, and
// this re-checks the registry as a whole (including the shipped
// algebras' specialised kernels agreeing with their scalar ops).
func TestRegisteredSemiringsSatisfyLaws(t *testing.T) {
	for _, name := range sublineardp.Semirings() {
		sr, ok := sublineardp.LookupSemiring(name)
		if !ok {
			t.Fatalf("registered semiring %q not resolvable", name)
		}
		if err := algebra.CheckLaws(sr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// A custom engine that wraps a conforming solver must pass the suite
// end-to-end — the positive half of the third-party contract (test-const
// above is the negative half: a nonconforming engine is caught, so it
// must be exempted explicitly).
type delegatingEngine struct{ inner *sublineardp.Solver }

func (delegatingEngine) Name() string { return "test-conforming" }

func (e delegatingEngine) Solve(ctx context.Context, in *sublineardp.Instance, cfg *sublineardp.Config) (*sublineardp.Solution, error) {
	return e.inner.Solve(ctx, in)
}

func TestThirdPartyEngineMeetsConformance(t *testing.T) {
	eng := delegatingEngine{inner: sublineardp.MustNewSolver(sublineardp.EngineHLVBanded)}
	if err := sublineardp.RegisterEngine(eng); err != nil {
		t.Fatal(err)
	}
	solver := sublineardp.MustNewSolver("test-conforming")
	for _, in := range conformanceInstances() {
		sol, err := solver.Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if rep := verify.Table(in, sol.Table); !rep.OK() {
			t.Errorf("%s: %v", in.Name, rep.Err())
		}
	}
}

// chainConformanceInstances spans every chain generator family: the
// three shipped problems (each declaring its own algebra), plus neutral
// random chains — full-prefix and windowed — that are lawful under any
// registered algebra. Sizes cross the LLP engine's worker-interleave
// boundaries.
func chainConformanceInstances() []*sublineardp.Chain {
	xs, ys := problems.RandomSeries(40, 3)
	s, e, w := problems.RandomJobs(37, 5)
	return []*sublineardp.Chain{
		problems.SegmentedLeastSquares(xs, ys, 500),
		problems.IntervalScheduling(s, e, w),
		problems.SubsetSum(53, []int64{4, 9, 13}),
		problems.RandomChain(45, 60, 0, 7),
		problems.RandomChain(45, 60, 6, 8),
	}
}

// The chain engine × generator conformance suite: every registered
// chain engine must, on every chain generator family, produce the
// sequential reference's vector bitwise (not just the same optimum —
// the LLP acceptance bar) and a vector that is the exact fixed point of
// the chain recurrence under the solver-independent verify.Chain.
func TestChainEngineConformance(t *testing.T) {
	chains := chainConformanceInstances()
	wants := make([]*seq.ChainResult, len(chains))
	for i, c := range chains {
		res, err := seq.SolveChainCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if rep := verify.Chain(nil, c, res.Values); !rep.OK() {
			t.Fatalf("reference vector for %s fails verification: %v", c.Name, rep.Err())
		}
		wants[i] = res
	}

	ctx := context.Background()
	for _, name := range sublineardp.ChainEngines() {
		t.Run(fmt.Sprintf("engine=%s", name), func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				solver, err := sublineardp.NewChainSolver(name, sublineardp.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range chains {
					sol, err := solver.Solve(ctx, c)
					if err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
					if sol.Algebra != c.Algebra && !(c.Algebra == "" && sol.Algebra == "min-plus") {
						t.Errorf("%s: algebra %q, want declared %q", c.Name, sol.Algebra, c.Algebra)
					}
					for j := 0; j <= c.N; j++ {
						if sol.Values.At(j) != wants[i].Values.At(j) {
							t.Fatalf("%s workers=%d: c(%d) = %d, sequential %d",
								c.Name, workers, j, sol.Values.At(j), wants[i].Values.At(j))
						}
					}
					if sol.Work != wants[i].Work {
						t.Errorf("%s workers=%d: work %d, sequential %d — not work-efficient",
							c.Name, workers, sol.Work, wants[i].Work)
					}
					if rep := verify.Chain(nil, c, sol.Values); !rep.OK() {
						t.Errorf("%s: vector is not a fixed point: %v", c.Name, rep.Err())
					}
				}
			}
		})
	}
}

// The chain engine × generator × semiring matrix: every registered
// chain engine must solve the neutral chain generators under every
// registered algebra bitwise to the generic sequential reference, with
// the fixed point certified by verify.Chain under that algebra. The
// shipped families run under their declared algebras above; the neutral
// random chains here make the matrix total, including third-party
// algebras admitted by RegisterSemiring.
func TestChainEngineSemiringConformance(t *testing.T) {
	chains := []*sublineardp.Chain{
		problems.RandomChain(31, 50, 0, 21),
		problems.RandomChain(34, 50, 5, 22),
	}
	ctx := context.Background()
	for _, algName := range sublineardp.Semirings() {
		sr, ok := sublineardp.LookupSemiring(algName)
		if !ok {
			t.Fatalf("registered semiring %q not resolvable", algName)
		}
		wants := make([]*seq.ChainResult, len(chains))
		for i, c := range chains {
			res, err := seq.SolveChainSemiringCtx(ctx, c, sr)
			if err != nil {
				t.Fatal(err)
			}
			if rep := verify.Chain(sr, c, res.Values); !rep.OK() {
				t.Fatalf("%s/%s: reference fails verification: %v", algName, c.Name, rep.Err())
			}
			wants[i] = res
		}
		for _, name := range sublineardp.ChainEngines() {
			t.Run(fmt.Sprintf("algebra=%s/engine=%s", algName, name), func(t *testing.T) {
				solver, err := sublineardp.NewChainSolver(name, sublineardp.WithSemiring(sr), sublineardp.WithWorkers(3))
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range chains {
					sol, err := solver.Solve(ctx, c)
					if err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
					if sol.Algebra != algName {
						t.Errorf("%s: solution algebra %q, want %q", c.Name, sol.Algebra, algName)
					}
					for j := 0; j <= c.N; j++ {
						if sol.Values.At(j) != wants[i].Values.At(j) {
							t.Fatalf("%s: c(%d) = %d, sequential %d", c.Name, j, sol.Values.At(j), wants[i].Values.At(j))
						}
					}
					if rep := verify.Chain(sr, c, sol.Values); !rep.OK() {
						t.Errorf("%s: vector is not a fixed point under %s: %v", c.Name, algName, rep.Err())
					}
				}
			})
		}
	}
}

// The tiled chain engine's matrix: dense segls under min-plus, and wis
// and subset sum (windowed by its largest item) under max-plus and
// bool-plan with their supports stripped, so the engine folds every
// window — plus a segls copy without FRow for the per-candidate F path.
// Across tile edges {1, 7, 64, > n} and workers {1, 2, 3}, values and
// predecessors must equal seq.SolveChainSemiringCtx's bitwise and Work
// the dense candidate count.
func TestTiledChainConformanceMatrix(t *testing.T) {
	const n = 150
	xs, ys := problems.RandomSeries(n, 4)
	s, e, w := problems.RandomJobs(n, 4)
	segls := problems.SegmentedLeastSquares(xs, ys, 700)
	noFRow := *segls
	noFRow.FRow = nil
	noFRow.Name = "segls-no-frow"
	dense := func(c *sublineardp.Chain) *sublineardp.Chain {
		d := *c
		d.Support = nil
		return &d
	}
	wis := dense(problems.IntervalScheduling(s, e, w))
	coins := dense(workload.CoinFeasibility(n, 2))
	if coins.Window <= 0 || coins.Window >= n {
		t.Fatalf("subset sum fixture has window %d, want a proper window", coins.Window)
	}
	cases := []struct {
		c   *sublineardp.Chain
		alg string
	}{
		{segls, algebra.NameMinPlus},
		{&noFRow, algebra.NameMinPlus},
		{wis, algebra.NameMaxPlus},
		{wis, algebra.NameBoolPlan},
		{coins, algebra.NameMaxPlus},
		{coins, algebra.NameBoolPlan},
	}
	ctx := context.Background()
	for _, tc := range cases {
		sr, ok := sublineardp.LookupSemiring(tc.alg)
		if !ok {
			t.Fatalf("semiring %q not registered", tc.alg)
		}
		want, err := seq.SolveChainSemiringCtx(ctx, tc.c, sr)
		if err != nil {
			t.Fatal(err)
		}
		if want.Work != tc.c.NumCandidates() {
			t.Fatalf("%s/%s: sequential work %d, dense count %d", tc.c.Name, tc.alg, want.Work, tc.c.NumCandidates())
		}
		for _, tile := range []int{1, 7, 64, n + 5} {
			for _, workers := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s/%s B=%d w=%d", tc.c.Name, tc.alg, tile, workers)
				got, err := blocked.SolveChainCtx(ctx, tc.c, blocked.Options{Workers: workers, TileSize: tile, Semiring: sr})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !got.Values.Equal(want.Values) {
					t.Fatalf("%s: vector differs from the sequential scan: %v", label, got.Values.Diff(want.Values, 3))
				}
				if !slices.Equal(got.Preds, want.Preds()) {
					t.Fatalf("%s: predecessors differ from the sequential scan", label)
				}
				if got.Work != want.Work {
					t.Fatalf("%s: work %d, sequential %d", label, got.Work, want.Work)
				}
			}
		}
	}
}

// The pruned-engine conformance matrix: blocked-ky × every declared-
// convex generator family × the tile-edge sweep must be bitwise
// identical — values AND splits — to the unpruned recording blocked
// engine and the sequential reference. This is the wall the O(n^2)
// claim hides behind: a pruning bug cannot shave work without moving a
// split or a value, and either moves trips this matrix.
func TestKnuthYaoConformanceMatrix(t *testing.T) {
	instances := []*sublineardp.Instance{
		problems.KnuthExampleOBST(),
		problems.RandomOBST(18, 40, 5),
		problems.RandomOBST(33, 70, 6),
		problems.RandomConvex(29, 15, 7),
		problems.RandomConvex(64, 9, 8),
	}
	ctx := context.Background()
	for _, in := range instances {
		if !in.Convex {
			t.Fatalf("%s: matrix fixture must declare Convex", in.Name)
		}
		want := seq.Solve(in)
		for _, tile := range []int{0, 1, 4, 7, 64} {
			pruned, err := sublineardp.MustNewSolver(sublineardp.EngineBlockedKY,
				sublineardp.WithTileSize(tile)).Solve(ctx, in)
			if err != nil {
				t.Fatalf("%s tile=%d: %v", in.Name, tile, err)
			}
			unpruned, err := sublineardp.MustNewSolver(sublineardp.EngineBlocked,
				sublineardp.WithTileSize(tile), sublineardp.WithSplits(true)).Solve(ctx, in)
			if err != nil {
				t.Fatalf("%s tile=%d: %v", in.Name, tile, err)
			}
			for i := 0; i <= in.N; i++ {
				for j := i + 1; j <= in.N; j++ {
					if g, e := pruned.Table.At(i, j), unpruned.Table.At(i, j); g != e {
						t.Fatalf("%s tile=%d: value(%d,%d) = %d, unpruned %d", in.Name, tile, i, j, g, e)
					}
					if j >= i+2 {
						if g, e := pruned.Split(i, j), unpruned.Split(i, j); g != e {
							t.Fatalf("%s tile=%d: split(%d,%d) = %d, unpruned %d", in.Name, tile, i, j, g, e)
						}
						if g, e := pruned.Split(i, j), want.Split(i, j); g != e {
							t.Fatalf("%s tile=%d: split(%d,%d) = %d, sequential %d", in.Name, tile, i, j, g, e)
						}
					}
				}
			}
			if rep := verify.Table(in, pruned.Table); !rep.OK() {
				t.Errorf("%s tile=%d: not a fixed point: %v", in.Name, tile, rep.Err())
			}
			tr, err := pruned.Tree()
			if err != nil {
				t.Fatalf("%s tile=%d: Tree: %v", in.Name, tile, err)
			}
			if err := verify.Tree(in, pruned.Table, tr); err != nil {
				t.Errorf("%s tile=%d: %v", in.Name, tile, err)
			}
		}
	}
}

// The negative half of the routing contract: an instance that does not
// declare convexity must never reach the pruned engine — not through
// auto, not through WithConvexity — and a declared one must route to it
// through auto at every parallel tier.
func TestConvexityRouting(t *testing.T) {
	ctx := context.Background()

	// auto on a non-convex instance takes blocked-pipe above the cutoff.
	chain := problems.RandomMatrixChain(100, 60, 2)
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineAuto).Solve(ctx, chain)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Engine != sublineardp.EngineBlockedPipe {
		t.Fatalf("auto routed non-convex %s to %q, want %q", chain.Name, sol.Engine, sublineardp.EngineBlockedPipe)
	}

	// auto on declared-convex min-plus prefers the pruned engine above
	// the cutoff, and takes blocked-pipe at or below it.
	for _, n := range []int{100, 300} {
		in := problems.RandomOBST(n, 50, int64(n))
		sol, err := sublineardp.MustNewSolver(sublineardp.EngineAuto).Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != sublineardp.EngineBlockedKY {
			t.Errorf("auto(%s, n=%d) chose %q, want %q", in.Name, n, sol.Engine, sublineardp.EngineBlockedKY)
		}
	}
	small := problems.RandomOBST(12, 50, 3)
	if sol, err = sublineardp.MustNewSolver(sublineardp.EngineAuto).Solve(ctx, small); err != nil {
		t.Fatal(err)
	}
	if sol.Engine != sublineardp.EngineBlockedPipe {
		t.Errorf("auto below cutoff chose %q, want %q", sol.Engine, sublineardp.EngineBlockedPipe)
	}

	// WithConvexity forces the pruned engine at every size...
	if sol, err = sublineardp.MustNewSolver(sublineardp.EngineAuto,
		sublineardp.WithConvexity(true)).Solve(ctx, small); err != nil {
		t.Fatal(err)
	}
	if sol.Engine != sublineardp.EngineBlockedKY {
		t.Errorf("auto+WithConvexity chose %q, want %q", sol.Engine, sublineardp.EngineBlockedKY)
	}

	// ...and is a contract on every engine: undeclared instances fail
	// with ErrConvexityRequired before any engine runs, as does a
	// semiring override off min-plus.
	for _, engine := range []string{sublineardp.EngineAuto, sublineardp.EngineSequential, sublineardp.EngineBlocked} {
		_, err := sublineardp.MustNewSolver(engine, sublineardp.WithConvexity(true)).Solve(ctx, chain)
		if !errors.Is(err, sublineardp.ErrConvexityRequired) {
			t.Errorf("%s+WithConvexity on non-convex: err = %v, want ErrConvexityRequired", engine, err)
		}
	}
	obst := problems.RandomOBST(20, 50, 4)
	_, err = sublineardp.MustNewSolver(sublineardp.EngineBlockedKY,
		sublineardp.WithSemiring(sublineardp.MaxPlus)).Solve(ctx, obst)
	if !errors.Is(err, sublineardp.ErrConvexityRequired) {
		t.Errorf("blocked-ky under max-plus: err = %v, want ErrConvexityRequired", err)
	}
	_, err = sublineardp.MustNewSolver(sublineardp.EngineBlockedKY).Solve(ctx, chain)
	if !errors.Is(err, sublineardp.ErrConvexityRequired) {
		t.Errorf("blocked-ky on non-convex: err = %v, want ErrConvexityRequired", err)
	}
}

// The pipelined-engine conformance matrix: blocked-pipe × every
// registered algebra × the tile-edge sweep must be bitwise identical —
// values AND recorded splits — to the sequential engine, with the
// fixed point certified under the algebra and the scheduler counters
// proving the run was barrier-free. The dependency-counter schedule has
// no way to cheat this: executing any tile before its last input is
// final changes a fold's operand sequence, and that moves a value or a
// split somewhere in the table.
func TestPipelinedConformanceMatrix(t *testing.T) {
	instances := []*sublineardp.Instance{
		problems.RandomMatrixChain(26, 60, 11),
		problems.RandomInstance(33, 80, 12),
		problems.Zigzag(23),
	}
	ctx := context.Background()
	for _, algName := range sublineardp.Semirings() {
		sr, ok := sublineardp.LookupSemiring(algName)
		if !ok {
			t.Fatalf("registered semiring %q not resolvable", algName)
		}
		for _, in := range instances {
			for _, tile := range []int{1, 4, 7, 64} {
				piped, err := sublineardp.MustNewSolver(sublineardp.EngineBlockedPipe,
					sublineardp.WithTileSize(tile), sublineardp.WithSemiring(sr),
					sublineardp.WithSplits(true)).Solve(ctx, in)
				if err != nil {
					t.Fatalf("%s/%s tile=%d: pipe: %v", algName, in.Name, tile, err)
				}
				want, err := sublineardp.MustNewSolver(sublineardp.EngineSequential,
					sublineardp.WithSemiring(sr)).Solve(ctx, in)
				if err != nil {
					t.Fatalf("%s/%s tile=%d: sequential: %v", algName, in.Name, tile, err)
				}
				pd, wd := piped.Table.Data(), want.Table.Data()
				for c := range pd {
					if pd[c] != wd[c] {
						t.Fatalf("%s/%s tile=%d: pipelined table diverges from sequential bitwise: %v",
							algName, in.Name, tile, piped.Table.Diff(want.Table, 3))
					}
				}
				for i := 0; i <= in.N; i++ {
					for j := i + 2; j <= in.N; j++ {
						if g, e := piped.Split(i, j), want.Split(i, j); g != e {
							t.Fatalf("%s/%s tile=%d: split(%d,%d) = %d, sequential %d",
								algName, in.Name, tile, i, j, g, e)
						}
					}
				}
				if piped.Stats.Barriers != 0 {
					t.Errorf("%s/%s tile=%d: pipelined solve crossed %d barriers, want 0",
						algName, in.Name, tile, piped.Stats.Barriers)
				}
				if piped.Stats.Tasks == 0 {
					t.Errorf("%s/%s tile=%d: pipelined solve reports zero scheduler tasks",
						algName, in.Name, tile)
				}
				if rep := verify.TableSemiring(sr, in, piped.Table); !rep.OK() {
					t.Errorf("%s/%s tile=%d: table is not a fixed point: %v",
						algName, in.Name, tile, rep.Err())
				}
			}
		}
	}
}
