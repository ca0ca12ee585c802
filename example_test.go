package sublineardp_test

import (
	"context"
	"fmt"

	"sublineardp"
)

// The headline use: solve a matrix-chain instance with the paper's
// parallel algorithm.
func ExampleSolver_Solve() {
	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded).Solve(context.Background(), in)
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Cost())
	fmt.Println(sol.Iterations == sublineardp.WorstCaseIterations(in.N))
	// Output:
	// 15125
	// true
}

// The sequential baseline also reconstructs the optimal parenthesization.
func ExampleSolution_Split() {
	in := sublineardp.NewMatrixChain([]int{10, 100, 5, 50})
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineSequential).Solve(context.Background(), in)
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Cost())
	fmt.Println(sol.Split(0, 3)) // root split: (A1 A2) A3
	// Output:
	// 7500
	// 2
}

// Optimal binary search trees use Knuth's alpha/beta weight formulation.
func ExampleNewOBST() {
	alpha := []int64{1, 1} // gap weights (unsuccessful searches)
	beta := []int64{1}     // key weights
	in := sublineardp.NewOBST(alpha, beta)
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineSequential).Solve(context.Background(), in)
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Cost())
	// Output:
	// 5
}

// The Section 3 pebbling game: the zigzag tree needs Theta(sqrt n) moves
// under the paper's square rule but stays within the Lemma 3.3 bound.
func ExampleNewPebbleGame() {
	tree := sublineardp.ZigzagTree(100)
	g := sublineardp.NewPebbleGame(tree, sublineardp.PebbleHLV)
	moves := g.Run(0)
	fmt.Println(g.RootPebbled())
	fmt.Println(moves <= sublineardp.PebbleBound(100))
	// Output:
	// true
	// true
}

// ExtractTree recovers the actual solution from the parallel solver's
// value table.
func ExampleExtractTree() {
	in := sublineardp.NewWeightedTriangulation([]int64{10, 100, 5, 50})
	sol, err := sublineardp.MustNewSolver(sublineardp.EngineHLVDense).Solve(context.Background(), in)
	if err != nil {
		panic(err)
	}
	tree, err := sublineardp.ExtractTree(in, sol.Table)
	if err != nil {
		panic(err)
	}
	fmt.Println(sublineardp.TreeCost(in, tree) == sol.Cost())
	// Output:
	// true
}

// Every engine is generic over an idempotent semiring: the same instance
// solves under min-plus (the paper's algebra), max-plus (worst-case
// parenthesization) or bool-plan via WithSemiring — or an instance can
// declare its algebra itself, as the worst-case and feasibility
// constructors do.
func ExampleWithSemiring() {
	ctx := context.Background()
	dims := []int{30, 35, 15, 5, 10, 20, 25}

	best := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded)
	sol, _ := best.Solve(ctx, sublineardp.NewMatrixChain(dims))
	fmt.Println("best:", sol.Cost())

	worst := sublineardp.MustNewSolver(sublineardp.EngineHLVBanded,
		sublineardp.WithSemiring(sublineardp.MaxPlus))
	sol, _ = worst.Solve(ctx, sublineardp.NewMatrixChain(dims))
	fmt.Println("worst:", sol.Cost(), sol.Algebra)

	// The declared-algebra constructor gives the same answer with no
	// option at all.
	sol, _ = best.Solve(ctx, sublineardp.NewWorstCaseMatrixChain(dims))
	fmt.Println("declared:", sol.Cost())
	// Output:
	// best: 15125
	// worst: 58000 max-plus
	// declared: 58000
}

// Bool-plan feasibility: is there a parenthesization avoiding the
// forbidden subexpressions? The sequential engine produces a witness.
func ExampleNewForbiddenSplits() {
	ctx := context.Background()
	s := sublineardp.MustNewSolver(sublineardp.EngineSequential)

	ok, _ := s.Solve(ctx, sublineardp.NewForbiddenSplits(4, [][2]int{{1, 3}}))
	fmt.Println("avoiding (1,3):", ok.Cost())

	no, _ := s.Solve(ctx, sublineardp.NewForbiddenSplits(4, [][2]int{{0, 2}, {1, 3}, {2, 4}}))
	fmt.Println("avoiding all pairs:", no.Cost())
	// Output:
	// avoiding (1,3): 1
	// avoiding all pairs: 0
}
