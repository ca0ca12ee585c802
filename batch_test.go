package sublineardp_test

import (
	"context"
	"errors"
	mrand "math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
)

// Acceptance: SolveBatch results are order-stable and complete — slot i
// answers instance i regardless of scheduling, and every slot is filled.
func TestSolveBatchOrderStableAndComplete(t *testing.T) {
	var ins []*sublineardp.Instance
	var want []sublineardp.Cost
	// Mixed sizes on both sides of the auto cutoff, in a scrambled order
	// so scheduling cannot accidentally match slot order.
	for _, n := range []int{70, 3, 24, 81, 9, 48, 66, 5, 33, 72, 12, 57} {
		in := sublineardp.NewShaped(sublineardp.ZigzagTree(n))
		ins = append(ins, in)
		want = append(want, seq.Solve(in).Cost())
	}
	sols, err := sublineardp.SolveBatch(context.Background(), ins,
		sublineardp.WithConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(ins) {
		t.Fatalf("%d solutions for %d instances", len(sols), len(ins))
	}
	for i, sol := range sols {
		if sol == nil {
			t.Fatalf("slot %d is nil", i)
		}
		if sol.Cost() != want[i] {
			t.Errorf("slot %d: cost %d, want %d (order instability?)", i, sol.Cost(), want[i])
		}
		if sol.N() != ins[i].N {
			t.Errorf("slot %d: solution for n=%d, instance has n=%d", i, sol.N(), ins[i].N)
		}
		wantEngine := sublineardp.EngineSequential
		if ins[i].N > sublineardp.DefaultAutoCutoff {
			wantEngine = sublineardp.EngineBlockedPipe
		}
		if sol.Engine != wantEngine {
			t.Errorf("slot %d (n=%d): engine %q, want %q", i, ins[i].N, sol.Engine, wantEngine)
		}
	}
}

func TestSolveBatchFixedEngine(t *testing.T) {
	ins := []*sublineardp.Instance{
		sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25}),
		sublineardp.NewOBST([]int64{1, 2, 1, 3, 1}, []int64{10, 3, 8, 6}),
	}
	sols, err := sublineardp.SolveBatch(context.Background(), ins,
		sublineardp.WithEngine(sublineardp.EngineWavefront))
	if err != nil {
		t.Fatal(err)
	}
	for i, sol := range sols {
		if sol.Engine != sublineardp.EngineWavefront {
			t.Errorf("slot %d: engine %q", i, sol.Engine)
		}
		if want := seq.Solve(ins[i]).Cost(); sol.Cost() != want {
			t.Errorf("slot %d: cost %d, want %d", i, sol.Cost(), want)
		}
	}

	if _, err := sublineardp.SolveBatch(context.Background(), ins,
		sublineardp.WithEngine("no-such-engine")); err == nil {
		t.Fatal("unknown batch engine accepted")
	}
}

func TestSolveBatchEmptyAndInvalid(t *testing.T) {
	sols, err := sublineardp.SolveBatch(context.Background(), nil)
	if err != nil || len(sols) != 0 {
		t.Fatalf("empty batch: %v, %d solutions", err, len(sols))
	}

	ins := []*sublineardp.Instance{
		sublineardp.NewMatrixChain([]int{1, 2, 3}),
		nil, // invalid slot must not poison the others
		sublineardp.NewMatrixChain([]int{4, 5, 6}),
	}
	sols, err = sublineardp.SolveBatch(context.Background(), ins)
	if err == nil {
		t.Fatal("batch with nil instance returned no error")
	}
	if sols[0] == nil || sols[2] == nil {
		t.Fatal("valid slots not solved despite one invalid instance")
	}
	if sols[1] != nil {
		t.Fatal("invalid slot produced a solution")
	}
}

func TestSolveBatchCancellation(t *testing.T) {
	// Enough slow instances that cancellation lands mid-batch.
	var ins []*sublineardp.Instance
	for i := 0; i < 16; i++ {
		ins = append(ins, slowInstance(24, 50*time.Microsecond))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sols, err := sublineardp.SolveBatch(ctx, ins, sublineardp.WithConcurrency(2))
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sols) != len(ins) {
		t.Fatalf("result slice length %d, want %d", len(sols), len(ins))
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled batch took %v, want prompt return", elapsed)
	}
}

// The cross-solve overlap acceptance wall: two large instances pushed
// through SolveBatch on a 2-worker pool must run as one shared tile
// scheduler — proven by the counters, not by timing. Both slots report
// the same joint Stats view with zero barriers, and the joint task count
// equals the sum of the two solo pipelined runs (tile-task counts are
// deterministic functions of n and the tile size, so the equality can
// only hold if both graphs drained through one scheduler). Tables stay
// bitwise identical to the sequential engine, and a mid-flight
// cancellation must leave the pool reusable: the same batch re-run on
// the same pool afterwards still passes every assertion.
func TestPipelinedOverlapBatch(t *testing.T) {
	const tile = 16
	insA := sublineardp.NewShaped(sublineardp.ZigzagTree(300))
	insB := sublineardp.NewMatrixChain(chainDims(281, 60, 7))
	pool := sublineardp.NewPool(2)
	defer pool.Close()

	mustSolve := func(in *sublineardp.Instance, opts ...sublineardp.Option) *sublineardp.Solution {
		t.Helper()
		sol, err := sublineardp.MustNewSolver("", opts...).Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		return sol
	}
	wantA := mustSolve(insA, sublineardp.WithEngine(sublineardp.EngineSequential))
	wantB := mustSolve(insB, sublineardp.WithEngine(sublineardp.EngineSequential))

	// Solo pipelined runs, for the deterministic task-count baseline.
	soloOpts := []sublineardp.Option{
		sublineardp.WithEngine(sublineardp.EngineBlockedPipe),
		sublineardp.WithTileSize(tile),
		sublineardp.WithWorkers(2),
		sublineardp.WithPool(pool),
	}
	soloA := mustSolve(insA, soloOpts...)
	soloB := mustSolve(insB, soloOpts...)

	check := func(t *testing.T, sols []*sublineardp.Solution) {
		t.Helper()
		for i, want := range []*sublineardp.Solution{wantA, wantB} {
			sol := sols[i]
			if sol == nil {
				t.Fatalf("slot %d is nil", i)
			}
			if sol.Engine != sublineardp.EngineBlockedPipe {
				t.Fatalf("slot %d ran engine %q, want %q", i, sol.Engine, sublineardp.EngineBlockedPipe)
			}
			sd, wd := sol.Table.Data(), want.Table.Data()
			for c := range sd {
				if sd[c] != wd[c] {
					t.Fatalf("slot %d diverges from the sequential table bitwise: %v",
						i, sol.Table.Diff(want.Table, 3))
				}
			}
			if sol.Stats.Barriers != 0 {
				t.Errorf("slot %d crossed %d barriers, want 0", i, sol.Stats.Barriers)
			}
		}
		if sols[0].Stats != sols[1].Stats {
			t.Errorf("overlapped slots report different Stats views (%+v vs %+v): not one shared scheduler",
				sols[0].Stats, sols[1].Stats)
		}
		if joint, solo := sols[0].Stats.Tasks, soloA.Stats.Tasks+soloB.Stats.Tasks; joint != solo {
			t.Errorf("joint scheduler ran %d tasks, solo runs total %d: graphs did not share one scheduler",
				joint, solo)
		}
	}

	batchOpts := []sublineardp.Option{
		sublineardp.WithEngine(sublineardp.EngineBlockedPipe),
		sublineardp.WithTileSize(tile),
		sublineardp.WithWorkers(2),
		sublineardp.WithPool(pool),
	}
	sols, err := sublineardp.SolveBatch(context.Background(), []*sublineardp.Instance{insA, insB}, batchOpts...)
	if err != nil {
		t.Fatal(err)
	}
	check(t, sols)

	// Mid-flight cancellation: a poisoned twin of A cancels the batch
	// context from inside its own cost callback, partway through the
	// shared graph. The batch must fail with context.Canceled, any slot
	// that does come back must still be bitwise correct, and the pool
	// must come out unpoisoned — the clean batch re-runs on it verbatim.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	poisoned := *insA
	poisoned.Name = "poisoned"
	poisoned.FPanel = nil
	baseF := insA.F
	poisoned.F = func(i, k, j int) sublineardp.Cost {
		if calls.Add(1) == 5000 {
			cancel()
		}
		return baseF(i, k, j)
	}
	cancelled, err := sublineardp.SolveBatch(ctx, []*sublineardp.Instance{&poisoned, insB}, batchOpts...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned batch err = %v, want context.Canceled", err)
	}
	if cancelled[1] != nil {
		sd, wd := cancelled[1].Table.Data(), wantB.Table.Data()
		for c := range sd {
			if sd[c] != wd[c] {
				t.Fatal("slot that survived the cancellation is corrupted")
			}
		}
	}

	sols, err = sublineardp.SolveBatch(context.Background(), []*sublineardp.Instance{insA, insB}, batchOpts...)
	if err != nil {
		t.Fatal(err)
	}
	check(t, sols)
}

// chainDims builds a deterministic dimension vector for an n-matrix
// chain without pulling internal/problems into the external test
// package.
func chainDims(n, maxD int, seed int64) []int {
	r := mrand.New(mrand.NewSource(seed))
	dims := make([]int, n+1)
	for i := range dims {
		dims[i] = r.Intn(maxD) + 1
	}
	return dims
}

// Every tile engine shares one graph in a batch: auto sends declared-
// convex OBSTs to blocked-ky and min-plus, max-plus and bool-plan chains
// to blocked-pipe, and all of them seed one scheduler. Every slot must be
// bitwise equal to the sequential engine — values and splits — and
// report the joint, barrier-free scheduler view.
func TestSolveBatchMixedTileEngines(t *testing.T) {
	ins := []*sublineardp.Instance{
		problems.RandomOBST(99, 50, 1),
		problems.RandomAlgebraInstance(algebra.NameMinPlus, 90, 60, 2),
		problems.RandomOBST(140, 40, 3),
		problems.RandomAlgebraInstance(algebra.NameMaxPlus, 80, 60, 4),
		problems.RandomAlgebraInstance(algebra.NameBoolPlan, 96, 60, 5),
	}
	wantEngine := []string{sublineardp.EngineBlockedKY, sublineardp.EngineBlockedPipe,
		sublineardp.EngineBlockedKY, sublineardp.EngineBlockedPipe, sublineardp.EngineBlockedPipe}
	pool := sublineardp.NewPool(2)
	defer pool.Close()
	sols, err := sublineardp.SolveBatch(context.Background(), ins,
		sublineardp.WithPool(pool), sublineardp.WithSplits(true), sublineardp.WithTileSize(16))
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		sol := sols[i]
		if sol.Engine != wantEngine[i] {
			t.Errorf("%s: routed to %q, want %q", in.Name, sol.Engine, wantEngine[i])
		}
		want, err := sublineardp.MustNewSolver(sublineardp.EngineSequential).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		sd, wd := sol.Table.Data(), want.Table.Data()
		for c := range sd {
			if sd[c] != wd[c] {
				t.Fatalf("%s: table diverges from sequential bitwise: %v", in.Name, sol.Table.Diff(want.Table, 3))
			}
		}
		for a := 0; a <= in.N; a++ {
			for b := a + 2; b <= in.N; b++ {
				if g, e := sol.Split(a, b), want.Split(a, b); g != e {
					t.Fatalf("%s: split(%d,%d) = %d, sequential %d", in.Name, a, b, g, e)
				}
			}
		}
		if sol.Stats.Tasks == 0 || sol.Stats.Barriers != 0 {
			t.Errorf("%s: scheduler view %+v, want tasks > 0 and no barrier", in.Name, sol.Stats)
		}
		if sol.Stats != sols[0].Stats {
			t.Errorf("%s: Stats %+v differ from slot 0's %+v: not one shared graph", in.Name, sol.Stats, sols[0].Stats)
		}
	}
}
