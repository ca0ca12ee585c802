package sublineardp_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

// fixtures returns the shared instances every engine must agree on:
// one per problem family plus the zigzag worst case, small enough for
// the O(n^4)-memory engines (rytter, hlv-dense).
func fixtures() []*sublineardp.Instance {
	return []*sublineardp.Instance{
		sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25}),
		sublineardp.NewOBST([]int64{1, 2, 1, 3, 1}, []int64{10, 3, 8, 6}),
		sublineardp.NewWeightedTriangulation([]int64{7, 3, 9, 2, 8, 4, 6, 5}),
		sublineardp.NewShaped(sublineardp.ZigzagTree(16)),
	}
}

// builtinEngines is the fixed built-in set. Tests that solve with every
// engine iterate this list rather than Engines(), so engines registered
// by other tests (e.g. TestRegisterCustomEngine's constant engine)
// cannot make the suite order-dependent.
func builtinEngines() []string {
	return []string{
		sublineardp.EngineAuto,
		sublineardp.EngineSequential,
		sublineardp.EngineWavefront,
		sublineardp.EngineRytter,
		sublineardp.EngineHLVDense,
		sublineardp.EngineHLVBanded,
	}
}

// Acceptance: every registered engine is reachable through the single
// Solver API and returns an identical Solution.Cost() on shared fixtures.
func TestAllEnginesAgreeOnFixtures(t *testing.T) {
	for _, in := range fixtures() {
		want := seq.Solve(in).Cost()
		for _, name := range builtinEngines() {
			s, err := sublineardp.NewSolver(name)
			if err != nil {
				t.Fatalf("NewSolver(%q): %v", name, err)
			}
			sol, err := s.Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, in.Name, err)
			}
			if got := sol.Cost(); got != want {
				t.Errorf("%s on %s: cost %d, want %d", name, in.Name, got, want)
			}
			if sol.Engine == "" {
				t.Errorf("%s on %s: Solution.Engine is empty", name, in.Name)
			}
		}
	}
}

func TestEngineRegistryRoundTrip(t *testing.T) {
	names := sublineardp.Engines()
	wantBuiltins := builtinEngines()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
		e, ok := sublineardp.LookupEngine(n)
		if !ok {
			t.Fatalf("Engines() lists %q but LookupEngine misses it", n)
		}
		if e.Name() != n {
			t.Errorf("engine registered as %q names itself %q", n, e.Name())
		}
	}
	for _, n := range wantBuiltins {
		if !have[n] {
			t.Errorf("built-in engine %q not registered", n)
		}
	}
	if _, err := sublineardp.NewSolver("no-such-engine"); err == nil {
		t.Fatal("NewSolver accepted an unknown engine name")
	}
	if err := sublineardp.RegisterEngine(nil); err == nil {
		t.Fatal("RegisterEngine accepted nil")
	}
}

func TestSolverRejectsInvalidInstance(t *testing.T) {
	s := sublineardp.MustNewSolver(sublineardp.EngineSequential)
	if _, err := s.Solve(context.Background(), nil); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := s.Solve(context.Background(), &sublineardp.Instance{}); err == nil {
		t.Fatal("zero instance accepted")
	}
}

// slowInstance is a valid instance whose F callback sleeps, so a solve
// takes long enough to cancel mid-flight deterministically.
func slowInstance(n int, delay time.Duration) *sublineardp.Instance {
	return &sublineardp.Instance{
		N:    n,
		Name: "slow",
		Init: func(i int) cost.Cost { return 1 },
		F: func(i, k, j int) cost.Cost {
			time.Sleep(delay)
			return cost.Cost(j - i)
		},
	}
}

// Acceptance: cancelling a context mid-solve terminates promptly with a
// non-nil error (ctx.Err()), for the per-cell-checking sequential engine
// and the per-iteration-checking parallel ones.
func TestSolveCancellationMidSolve(t *testing.T) {
	// n=40 with 25us per F call is ~250ms of work; cancellation after
	// 10ms must cut that short.
	in := slowInstance(40, 25*time.Microsecond)
	for _, name := range []string{sublineardp.EngineSequential, sublineardp.EngineWavefront} {
		s := sublineardp.MustNewSolver(name, sublineardp.WithWorkers(1))
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		sol, err := s.Solve(ctx, in)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Fatalf("%s: cancelled solve returned no error (took %v)", name, elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want context.Canceled", name, err)
		}
		if sol != nil {
			t.Fatalf("%s: cancelled solve returned a solution", name)
		}
		if elapsed > 150*time.Millisecond {
			t.Errorf("%s: cancellation took %v, want prompt return", name, elapsed)
		}
	}
}

// A context that is already expired must abort every engine before any
// work happens.
func TestSolveDeadlineAlreadyExpired(t *testing.T) {
	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, name := range builtinEngines() {
		sol, err := sublineardp.MustNewSolver(name).Solve(ctx, in)
		if err == nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", name, err)
		}
		if sol != nil {
			t.Errorf("%s: expired context returned a solution", name)
		}
	}
}

func TestAutoEngineSelectsBySize(t *testing.T) {
	s := sublineardp.MustNewSolver(sublineardp.EngineAuto)
	if s.EngineName() != sublineardp.EngineAuto {
		t.Fatalf("EngineName = %q", s.EngineName())
	}
	// Without declared convexity every size takes the barrier-free
	// pipelined blocked engine — O(n^2) memory, zero wavefront barriers
	// (Solution.Stats pins the latter), and the sequential table bit for
	// bit.
	for _, n := range []int{1, 2, 12, sublineardp.DefaultAutoCutoff, sublineardp.DefaultAutoCutoff + 1, 128, 256} {
		in := problems.RandomMatrixChain(n, 50, int64(n))
		sol, err := s.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != sublineardp.EngineBlockedPipe {
			t.Errorf("n=%d routed to %q, want %q", n, sol.Engine, sublineardp.EngineBlockedPipe)
			continue
		}
		if !sol.Table.Equal(seq.Solve(in).Table) {
			t.Errorf("n=%d: %s table differs from sequential", n, sol.Engine)
		}
		if sol.Stats.Barriers != 0 || sol.Stats.Tasks == 0 {
			t.Errorf("n=%d: blocked-pipe stats = %+v, want 0 barriers and non-zero tasks", n, sol.Stats)
		}
	}

	// Size picks the tier of a declared-convex instance: blocked-pipe up
	// to the cutoff, blocked-ky above it, and a custom cutoff moves the
	// boundary.
	small := problems.RandomOBST(12, 50, 3)
	for _, tc := range []struct {
		cutoff int
		want   string
	}{
		{0, sublineardp.EngineBlockedPipe},
		{small.N, sublineardp.EngineBlockedPipe},
		{small.N - 1, sublineardp.EngineBlockedKY},
		{4, sublineardp.EngineBlockedKY},
	} {
		sol, err := sublineardp.MustNewSolver(sublineardp.EngineAuto, sublineardp.WithAutoCutoff(tc.cutoff)).Solve(context.Background(), small)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != tc.want {
			t.Errorf("cutoff=%d: convex n=%d routed to %q, want %q", tc.cutoff, small.N, sol.Engine, tc.want)
		}
		if !sol.Table.Equal(seq.Solve(small).Table) {
			t.Errorf("cutoff=%d: %s table differs from sequential", tc.cutoff, sol.Engine)
		}
	}
}

func TestSolutionTreeAcrossEngines(t *testing.T) {
	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	wantTree := seq.Solve(in).Tree()
	for _, name := range []string{
		sublineardp.EngineSequential,
		sublineardp.EngineHLVBanded,
		sublineardp.EngineHLVDense,
	} {
		sol, err := sublineardp.MustNewSolver(name).Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := sol.Tree()
		if err != nil {
			t.Fatalf("%s: Tree: %v", name, err)
		}
		if !tr.Equal(wantTree) {
			t.Errorf("%s: reconstructed tree differs from sequential", name)
		}
	}
	// The sequential engine also exposes split points directly.
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineSequential).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Split(0, 6); got != 3 {
		t.Errorf("root split = %d, want 3", got)
	}
	if got := sol.Work; got <= 0 {
		t.Errorf("sequential Work = %d, want > 0", got)
	}
}

func TestSolverOptionsReachEngine(t *testing.T) {
	in := sublineardp.NewShaped(sublineardp.CompleteTree(49))
	want := seq.Solve(in).Table

	s := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded,
		sublineardp.WithTermination(sublineardp.WStable),
		sublineardp.WithHistory(true),
		sublineardp.WithTarget(want),
	)
	sol, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.StoppedEarly {
		t.Error("WStable on a balanced instance should stop early")
	}
	if len(sol.History) != sol.Iterations {
		t.Errorf("history has %d entries, iterations %d", len(sol.History), sol.Iterations)
	}
	if sol.ConvergedAt < 1 {
		t.Errorf("ConvergedAt = %d, want >= 1 with target set", sol.ConvergedAt)
	}
	if sol.BandRadius <= 0 {
		t.Errorf("BandRadius = %d, want > 0 for banded engine", sol.BandRadius)
	}
	if !sol.Table.Equal(want) {
		t.Error("early-stopped table differs from sequential")
	}

	// WithBandRadius reaches the banded engine.
	wide := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded, sublineardp.WithBandRadius(in.N))
	solWide, err := wide.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if solWide.BandRadius != in.N {
		t.Errorf("BandRadius = %d, want %d", solWide.BandRadius, in.N)
	}
}

func TestSemiringEngineAlgebras(t *testing.T) {
	in := sublineardp.NewMatrixChain([]int{10, 100, 5, 50, 20})
	minSol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVDense).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	maxSol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVDense,
		sublineardp.WithSemiring(sublineardp.MaxPlus)).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if want := seq.Solve(in).Cost(); minSol.Cost() != want {
		t.Errorf("min-plus cost %d, want %d", minSol.Cost(), want)
	}
	if maxSol.Cost() <= minSol.Cost() {
		t.Errorf("max-plus optimum %d not above min-plus %d", maxSol.Cost(), minSol.Cost())
	}
}

// A third-party engine registered at runtime is reachable by name.
type constEngine struct{}

func (constEngine) Name() string { return "test-const" }
func (constEngine) Solve(ctx context.Context, in *sublineardp.Instance, cfg *sublineardp.Config) (*sublineardp.Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tbl := recurrence.NewTable(in.N)
	for i := 0; i < in.N; i++ {
		tbl.Set(i, i+1, in.Init(i))
	}
	tbl.Set(0, in.N, 42)
	return &sublineardp.Solution{Engine: "test-const", Table: tbl, ConvergedAt: -1}, nil
}

func TestRegisterCustomEngine(t *testing.T) {
	if err := sublineardp.RegisterEngine(constEngine{}); err != nil &&
		!strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	sol, err := sublineardp.MustNewSolver("test-const").Solve(context.Background(),
		sublineardp.NewMatrixChain([]int{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost() != 42 {
		t.Fatalf("custom engine cost = %d", sol.Cost())
	}
	if err := sublineardp.RegisterEngine(constEngine{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}
