package problems

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/seq"
)

// The worst-case totals must dominate the costliest tree — the max-plus
// optimum — of every instance, be tight where every tree costs the same,
// and saturate instead of wrapping.
func TestMaxCostBoundsDominateCostliestTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	maxPlus, _ := algebra.Lookup(algebra.NameMaxPlus)
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		dims := make([]int, n+1)
		weights := make([]int64, n+1)
		for i := range dims {
			dims[i] = 1 + rng.Intn(1000)
			weights[i] = int64(dims[i])
		}
		if worst := seq.Solve(WorstCaseMatrixChain(dims)).Cost(); int64(worst) > ProductChainMaxCost(dims) {
			t.Fatalf("dims %v: costliest chain %d above the bound %d", dims, worst, ProductChainMaxCost(dims))
		}
		if len(weights) >= 3 {
			res, err := seq.SolveSemiringCtx(context.Background(), WeightedTriangulation(weights), maxPlus)
			if err != nil {
				t.Fatal(err)
			}
			if int64(res.Cost()) > ProductChainMaxCost(weights) {
				t.Fatalf("weights %v: costliest triangulation %d above the bound %d", weights, res.Cost(), ProductChainMaxCost(weights))
			}
		}
		obst := RandomOBST(n, 1000, int64(trial))
		res, err := seq.SolveSemiringCtx(context.Background(), obst, maxPlus)
		if err != nil {
			t.Fatal(err)
		}
		alpha, beta := make([]int64, obst.N), make([]int64, obst.N-1)
		for i := range alpha {
			alpha[i] = int64(obst.Init(i))
		}
		for i := range beta {
			// F(i,i+1,i+2) = beta_i + alpha_i + alpha_{i+1}.
			beta[i] = int64(obst.F(i, i+1, i+2)) - alpha[i] - alpha[i+1]
		}
		if bound := OBSTMaxCost(alpha, beta); int64(res.Cost()) > bound {
			t.Fatalf("%s: costliest tree %d above the bound %d", obst.Name, res.Cost(), bound)
		}
	}
	// Equal dims: every parenthesisation costs (n-1)·d³, the bound.
	if got, want := ProductChainMaxCost([]int{7, 7, 7, 7, 7}), int64(3*343); got != want {
		t.Errorf("equal dims bound %d, want %d", got, want)
	}
	if got := ProductChainMaxCost([]int64{3000000, 3000000, 3000000}); got != math.MaxInt64 {
		t.Errorf("overflowing product bound %d, want saturation at MaxInt64", got)
	}
	if got := OBSTMaxCost([]int64{4e18, 4e18}, []int64{4e18}); got != math.MaxInt64 {
		t.Errorf("overflowing OBST bound %d, want saturation at MaxInt64", got)
	}
	if got := IntervalSchedulingMaxCost([]int64{4e18, 4e18, 4e18}); got != math.MaxInt64 {
		t.Errorf("overflowing wis bound %d, want saturation at MaxInt64", got)
	}
}

// The wis bound is the weight total: the heaviest schedule of jobs that
// never overlap takes every job, and it must sit at the bound.
func TestIntervalSchedulingMaxCostIsTight(t *testing.T) {
	weights := []int64{7e17, 7e17, 7e17}
	c := IntervalScheduling([]int64{0, 10, 20}, []int64{5, 15, 25}, weights)
	if got, want := int64(seq.SolveChain(c).Cost()), IntervalSchedulingMaxCost(weights); got != want || want != 21e17 {
		t.Fatalf("disjoint jobs: optimum %d, bound %d, want both 2.1e18", got, want)
	}
	for seed := int64(0); seed < 10; seed++ {
		s, e, w := RandomJobs(40, seed)
		if got, bound := int64(seq.SolveChain(IntervalScheduling(s, e, w)).Cost()), IntervalSchedulingMaxCost(w); got > bound {
			t.Fatalf("seed %d: optimum %d above the bound %d", seed, got, bound)
		}
	}
}
