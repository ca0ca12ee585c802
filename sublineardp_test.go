package sublineardp_test

import (
	"context"
	"testing"

	"sublineardp"
	"sublineardp/internal/seq"
)

func TestTriangulationFacade(t *testing.T) {
	square := []sublineardp.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100}}
	in := sublineardp.NewTriangulation(square)
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost() <= 0 || sol.Cost() >= sublineardp.Inf {
		t.Fatalf("degenerate triangulation cost %d", sol.Cost())
	}
	// Weight-product triangulation matches matrix chain.
	w := sublineardp.NewWeightedTriangulation([]int64{30, 35, 15, 5, 10, 20, 25})
	if got := seq.Solve(w).Cost(); got != 15125 {
		t.Fatalf("weighted triangulation = %d", got)
	}
}

func TestShapedAndPebbleFacade(t *testing.T) {
	n := 36
	tr := sublineardp.ZigzagTree(n)
	in := sublineardp.NewShaped(tr)
	want := seq.Solve(in).Table
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded,
		sublineardp.WithTarget(want)).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ConvergedAt < 0 || sol.ConvergedAt > sublineardp.WorstCaseIterations(n) {
		t.Fatalf("converged at %d, budget %d", sol.ConvergedAt, sublineardp.WorstCaseIterations(n))
	}

	g := sublineardp.NewPebbleGame(tr, sublineardp.PebbleHLV)
	moves := g.Run(0)
	if !g.RootPebbled() || moves > sublineardp.PebbleBound(n) {
		t.Fatalf("game took %d moves, bound %d", moves, sublineardp.PebbleBound(n))
	}

	fast := sublineardp.NewPebbleGame(sublineardp.CompleteTree(n), sublineardp.PebbleRytter)
	if fm := fast.Run(0); fm >= moves {
		t.Fatalf("doubling rule on complete tree (%d moves) not faster than zigzag worst case (%d)", fm, moves)
	}
}

func TestExtractTreeFromParallelResult(t *testing.T) {
	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sublineardp.ExtractTree(in, sol.Table)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(seq.Solve(in).Tree()) {
		t.Fatal("parallel-extracted tree differs from sequential reconstruction")
	}
	if got := sublineardp.TreeCost(in, tr); got != sol.Cost() {
		t.Fatalf("tree cost %d != optimum %d", got, sol.Cost())
	}
}

func TestExtractTreeRejectsUnconvergedTable(t *testing.T) {
	in := sublineardp.NewShaped(sublineardp.ZigzagTree(25))
	// One iteration is nowhere near convergence for a zigzag instance.
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVDense,
		sublineardp.WithMaxIterations(1)).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sublineardp.ExtractTree(in, sol.Table); err == nil {
		t.Fatal("unconverged table accepted")
	}
}
