package blocked

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
)

// The pipelined engine must reproduce the sequential DP bitwise across
// every tile-boundary residue — same case table as
// TestBlockedMatchesSequentialAcrossTileBoundaries.
func TestPipelinedMatchesBlockedAcrossTileBoundaries(t *testing.T) {
	cases := []struct{ n, tile int }{
		{1, 0}, {2, 0}, {3, 2}, {7, 3},
		{16, 4}, {15, 4}, {14, 4}, {17, 4},
		{23, 5}, {31, 8}, {24, 1}, {24, 64},
		{40, 7}, {40, 0},
	}
	for _, tc := range cases {
		in := problems.RandomInstance(tc.n, 90, int64(tc.n*31+tc.tile))
		want := seq.Solve(in)
		got := SolvePipe(in, Options{TileSize: tc.tile})
		if !bitwiseEqual(got.Table, want.Table) {
			t.Errorf("n=%d tile=%d: table differs from sequential: %v",
				tc.n, tc.tile, got.Table.Diff(want.Table, 3))
		}
		if rep := verify.Table(in, got.Table); !rep.OK() {
			t.Errorf("n=%d tile=%d: not a fixed point: %v", tc.n, tc.tile, rep.Err())
		}
		if want := EffectiveTileSize(tc.n, tc.tile, runtime.GOMAXPROCS(0)); got.TileSize != want {
			t.Errorf("n=%d tile=%d: effective tile %d, want %d", tc.n, tc.tile, got.TileSize, want)
		}
	}
}

// Every registered algebra × tile edge, values AND recorded splits,
// bitwise against the sequential DP.
func TestPipelinedMatchesBlockedAcrossSemirings(t *testing.T) {
	ctx := context.Background()
	for _, name := range algebra.Names() {
		sr, _ := algebra.Lookup(name)
		for _, in := range pipelineInstances() {
			for _, tile := range []int{1, 4, 7, 64} {
				want, err := seq.SolveSemiringCtx(ctx, in, sr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SolvePipeCtx(ctx, in, Options{TileSize: tile, Semiring: sr, RecordSplits: true})
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(got.Table, want.Table) {
					t.Errorf("%s/%s tile=%d: table differs: %v",
						name, in.Name, tile, got.Table.Diff(want.Table, 3))
				}
				if i, j, ok := splitsDiffer(got, want, in.N); ok {
					t.Errorf("%s/%s tile=%d: split(%d,%d) = %d, sequential recorded %d",
						name, in.Name, tile, i, j, got.Split(i, j), want.Split(i, j))
				}
			}
		}
	}
}

// The interface (non-stenciled) dispatch path must agree too.
func TestPipelinedGenericKernelPath(t *testing.T) {
	in := problems.RandomInstance(18, 60, 11)
	want := seq.Solve(in)
	got, err := SolvePipeCtx(context.Background(), in, Options{TileSize: 4, Semiring: wrappedMinPlus{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got.Table, want.Table) {
		t.Errorf("wrapped kernel diverges: %v", got.Table.Diff(want.Table, 3))
	}
}

func TestPipelinedCancellation(t *testing.T) {
	in := problems.RandomInstance(220, 80, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolvePipeCtx(ctx, in, Options{TileSize: 16})
	if err == nil || res != nil {
		t.Fatalf("cancelled solve returned (%v, %v), want nil result and ctx error", res, err)
	}
}

// The candidate ledger must stay exact under the reordering: charged
// work equals the sequential candidate count for every tile size.
func TestPipelinedWorkMatchesSequential(t *testing.T) {
	for _, tile := range []int{1, 3, 8, 64} {
		in := problems.RandomInstance(33, 50, 2)
		want := seq.Solve(in).Work
		got := SolvePipe(in, Options{TileSize: tile})
		if gotWork := got.Acct.Work - int64(in.N); gotWork != want {
			t.Errorf("tile=%d: charged work %d, sequential %d", tile, gotWork, want)
		}
	}
}

// The schedule is barrier-free: the unpruned and the Knuth–Yao solve
// both run as one task graph whose only join is its final quiescence,
// and the serial reference runs no scheduler at all.
func TestPipelinedBarrierFree(t *testing.T) {
	tile := 16
	for _, tc := range []struct {
		in *recurrence.Instance
		ky bool
	}{
		{problems.RandomInstance(120, 70, 4), false},
		{problems.RandomOBST(119, 70, 4), true},
	} {
		in := tc.in
		var res *Result
		if tc.ky {
			res = SolveKY(in, Options{TileSize: tile, Workers: 3})
		} else {
			res = SolvePipe(in, Options{TileSize: tile, Workers: 3})
		}
		if res.Stats.Barriers != 0 || res.Stats.Steals != 0 {
			t.Errorf("%s: %d barriers / %d steals, want 0", in.Name, res.Stats.Barriers, res.Stats.Steals)
		}
		if res.Stats.Tasks == 0 {
			t.Errorf("%s: no tasks counted", in.Name)
		}
		if want := seq.Solve(in); !bitwiseEqual(res.Table, want.Table) {
			t.Errorf("%s: table diverged while counting: %v", in.Name, res.Table.Diff(want.Table, 3))
		}
	}
	if st := Solve(problems.RandomInstance(40, 70, 4), Options{TileSize: 8}).Stats; st != (parutil.StatsView{}) {
		t.Errorf("serial Solve reports scheduler stats %+v, want zero", st)
	}
}

// splitsDiffer finds the first computed span (j >= i+2) whose recorded
// split differs from the sequential reference's.
func splitsDiffer(got *Result, want *seq.Result, n int) (i, j int, differ bool) {
	for i := 0; i <= n; i++ {
		for j := i + 2; j <= n; j++ {
			if got.Split(i, j) != want.Split(i, j) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// Two instances through one shared graph on a 2-worker pool: both tables
// bitwise equal to the sequential DP, and the joint Stats view on both results proves they
// ran through one scheduler — its task count is exactly the sum of the
// two solves' individual (deterministic) task counts.
func TestPipeBatchSharedScheduler(t *testing.T) {
	pool := parutil.NewPool(2)
	defer pool.Close()
	a := problems.RandomInstance(130, 80, 21)
	b := problems.RandomMatrixChain(110, 60, 22)
	opt := Options{TileSize: 16, Pool: pool, Workers: 2}

	wantA := seq.Solve(a)
	wantB := seq.Solve(b)
	soloA := SolvePipe(a, opt)
	soloB := SolvePipe(b, opt)

	results, errs := SolvePipeBatchCtx(context.Background(),
		[]BatchItem{{In: a}, {In: b}}, opt)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if !bitwiseEqual(results[0].Table, wantA.Table) {
		t.Errorf("batched A differs from sequential: %v", results[0].Table.Diff(wantA.Table, 3))
	}
	if !bitwiseEqual(results[1].Table, wantB.Table) {
		t.Errorf("batched B differs from sequential: %v", results[1].Table.Diff(wantB.Table, 3))
	}
	if results[0].Stats != results[1].Stats {
		t.Errorf("batch items report different Stats views (%+v vs %+v) — not one shared scheduler",
			results[0].Stats, results[1].Stats)
	}
	if got, want := results[0].Stats.Tasks, soloA.Stats.Tasks+soloB.Stats.Tasks; got != want {
		t.Errorf("shared graph ran %d tasks, want %d (sum of the two solves)", got, want)
	}
	if results[0].Stats.Barriers != 0 {
		t.Errorf("overlapped batch recorded %d barriers, want 0", results[0].Stats.Barriers)
	}
}

// Mid-flight cancellation of one item must not corrupt or cancel its
// co-batched neighbour. The cancel fires from inside item A's own F
// evaluation, so it is guaranteed to land while A is mid-solve.
func TestPipeBatchCancellationIsolation(t *testing.T) {
	pool := parutil.NewPool(2)
	defer pool.Close()
	opt := Options{TileSize: 16, Pool: pool, Workers: 2}

	base := problems.RandomInstance(130, 80, 31)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var calls atomic.Int64
	inA := *base
	inA.FPanel = nil // force the per-candidate F path so the trap sees every fold
	inA.F = func(i, k, j int) cost.Cost {
		if calls.Add(1) == 5000 {
			cancelA()
		}
		return base.F(i, k, j)
	}

	b := problems.RandomMatrixChain(110, 60, 32)
	wantB := seq.Solve(b)

	results, errs := SolvePipeBatchCtx(context.Background(),
		[]BatchItem{{In: &inA, Ctx: ctxA}, {In: b}}, opt)
	if errs[0] == nil || results[0] != nil {
		t.Fatalf("cancelled item returned (%v, %v), want nil result and ctx error", results[0], errs[0])
	}
	if errs[0] != context.Canceled {
		t.Errorf("cancelled item error = %v, want context.Canceled", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("co-batched item failed: %v", errs[1])
	}
	if !bitwiseEqual(results[1].Table, wantB.Table) {
		t.Errorf("co-batched item corrupted by neighbour's cancellation: %v",
			results[1].Table.Diff(wantB.Table, 3))
	}
}

// Mixed-algebra batches share the scheduler too (the runner erases the
// kernel type per item).
func TestPipeBatchMixedAlgebras(t *testing.T) {
	in := problems.RandomInstance(40, 70, 7)
	maxSR, _ := algebra.Lookup(algebra.NameMaxPlus)
	wantMin := seq.Solve(in)
	wantMax, err := seq.SolveSemiringCtx(context.Background(), in, maxSR)
	if err != nil {
		t.Fatal(err)
	}

	// Per-item algebra comes from the instance; override via two batches
	// is not needed — run min-plus and max-plus instances side by side.
	inMax := *in
	inMax.Algebra = algebra.NameMaxPlus
	results, errs := SolvePipeBatchCtx(context.Background(),
		[]BatchItem{{In: in}, {In: &inMax}}, Options{TileSize: 8})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if !bitwiseEqual(results[0].Table, wantMin.Table) {
		t.Errorf("min-plus item differs: %v", results[0].Table.Diff(wantMin.Table, 3))
	}
	if !bitwiseEqual(results[1].Table, wantMax.Table) {
		t.Errorf("max-plus item differs: %v", results[1].Table.Diff(wantMax.Table, 3))
	}
}

// A Knuth–Yao item shares the graph with unpruned items over every
// algebra; cancelling it mid-solve (from inside its own F) fails only
// that item, and every batch-mate stays bitwise equal to the sequential
// DP.
func TestPipeBatchKYCancellationIsolation(t *testing.T) {
	pool := parutil.NewPool(2)
	defer pool.Close()
	opt := Options{TileSize: 16, Pool: pool, Workers: 2}

	base := problems.RandomOBST(129, 80, 41)
	ctxKY, cancelKY := context.WithCancel(context.Background())
	defer cancelKY()
	var calls atomic.Int64
	inKY := *base
	inKY.F = func(i, k, j int) cost.Cost {
		if calls.Add(1) == 3000 {
			cancelKY()
		}
		return base.F(i, k, j)
	}
	mates := []*recurrence.Instance{
		problems.RandomOBST(120, 60, 42),
		problems.RandomAlgebraInstance(algebra.NameMinPlus, 100, 60, 43),
		problems.RandomAlgebraInstance(algebra.NameMaxPlus, 90, 60, 44),
		problems.RandomAlgebraInstance(algebra.NameBoolPlan, 110, 60, 45),
	}
	items := []BatchItem{{In: &inKY, Ctx: ctxKY, KY: true}, {In: mates[0], KY: true}}
	for _, in := range mates[1:] {
		items = append(items, BatchItem{In: in})
	}
	results, errs := SolvePipeBatchCtx(context.Background(), items, opt)
	if errs[0] != context.Canceled || results[0] != nil {
		t.Fatalf("cancelled KY item returned (%v, %v), want nil result and context.Canceled", results[0], errs[0])
	}
	for k, in := range mates {
		if errs[k+1] != nil {
			t.Fatalf("%s: %v", in.Name, errs[k+1])
		}
		want, err := seq.SolveSemiringCtx(context.Background(), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(results[k+1].Table, want.Table) {
			t.Errorf("%s: corrupted by the cancelled KY neighbour: %v", in.Name, results[k+1].Table.Diff(want.Table, 3))
		}
	}
}

func pipelineInstances() []*recurrence.Instance {
	return []*recurrence.Instance{
		problems.RandomInstance(21, 70, 3),
		problems.RandomMatrixChain(26, 50, 5),
		problems.Zigzag(19),
	}
}

// A Zero left factor c(i,k) skips its F run before FPanel is called. On
// the span-2 wall — every (i,i+2) banned, so every span of two or more
// objects is infeasible — only the leaf splits k = i+1 have a non-Zero
// left factor, so the runs evaluated cover at most one row of cells per
// i: O(n²) F cells against the O(n³) a run per split would cost. Table
// and splits stay bitwise those of the sequential DP.
func TestPipelinedSkipsZeroLeftRuns(t *testing.T) {
	const n = 200
	var wall [][2]int
	for i := 0; i+2 <= n; i++ {
		wall = append(wall, [2]int{i, i + 2})
	}
	in := problems.ForbiddenSplits(n, wall)
	var cells atomic.Int64
	fPanel := in.FPanel
	in.FPanel = func(i, k, j0 int, dst []cost.Cost) {
		cells.Add(int64(len(dst)))
		fPanel(i, k, j0, dst)
	}
	want := seq.Solve(in)
	if want.Cost() != 0 {
		t.Fatalf("span-2 wall is feasible: c(0,%d) = %d", n, want.Cost())
	}
	for _, record := range []bool{false, true} {
		for _, tile := range []int{0, 7, 64} {
			cells.Store(0)
			got, err := SolvePipeCtx(context.Background(), in, Options{TileSize: tile, RecordSplits: record})
			if err != nil {
				t.Fatal(err)
			}
			if c := cells.Load(); c > (n+1)*(n+1) {
				t.Errorf("record=%v tile=%d: %d F-run cells evaluated, want <= %d", record, tile, c, (n+1)*(n+1))
			}
			if !bitwiseEqual(got.Table, want.Table) {
				t.Errorf("record=%v tile=%d: table differs: %v", record, tile, got.Table.Diff(want.Table, 3))
			}
			if record {
				if i, j, ok := splitsDiffer(got, want, n); ok {
					t.Errorf("tile=%d: split(%d,%d) = %d, sequential recorded %d",
						tile, i, j, got.Split(i, j), want.Split(i, j))
				}
			}
		}
	}
}
