// Package semiring holds the cross-algebra checks of the solvers: the
// same recurrence evaluated over min-plus, max-plus and bool-plan by the
// sequential scan and by the paper's dense HLV iteration, each checked
// against seq.BruteForce or against an equivalent min-plus instance.
// The semirings themselves live in internal/algebra; this package has
// no code of its own.
package semiring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sublineardp/internal/algebra"
	"sublineardp/internal/core"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

func hlvDense(in *recurrence.Instance) *core.Result {
	return core.Solve(in, core.Options{Variant: core.Dense})
}

// Min-plus declared explicitly on the instance must agree with the
// default (undeclared) min-plus pipeline on the same instances.
func TestMinPlusMatchesPrimaryPipeline(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 4 + int(seed)
		primary := problems.RandomInstance(n, 40, seed)
		declared := problems.RandomInstance(n, 40, seed)
		declared.Algebra = algebra.NameMinPlus
		want := seq.Solve(primary).Cost()
		if got := seq.Solve(declared).Cost(); got != want {
			t.Fatalf("seed %d: declared min-plus sequential %d != primary %d", seed, got, want)
		}
		if got := hlvDense(declared).Cost(); got != want {
			t.Fatalf("seed %d: declared min-plus hlv-dense %d != primary %d", seed, got, want)
		}
	}
}

// Max-plus: the parallel iteration must converge to the brute-force
// maximum within the Lemma 3.3 budget — the pebbling argument is
// order-symmetric.
func TestMaxPlusAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 3 + int(seed%6)
		in := problems.RandomAlgebraInstance(algebra.NameMaxPlus, n, 50, seed)
		want := seq.BruteForce(in)
		if got := seq.Solve(in).Cost(); got != want {
			t.Fatalf("seed %d: max-plus sequential %d != brute %d", seed, got, want)
		}
		if got := hlvDense(in).Cost(); got != want {
			t.Fatalf("seed %d: max-plus hlv-dense %d != brute %d", seed, got, want)
		}
	}
}

// Bool feasibility: allowed splits form a random subset; the bool-plan
// answer must match "does the min-plus optimum avoid Inf" on the
// equivalent forbidden-split instance.
func TestBoolPlanMatchesInfeasibilityOfMinPlus(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		n := 4 + int(seed%5)
		rng := rand.New(rand.NewSource(seed))
		sz := n + 1
		allowed := make([]bool, sz*sz*sz)
		for i := range allowed {
			allowed[i] = rng.Intn(3) > 0 // ~2/3 of splits allowed
		}
		boolIn := &recurrence.Instance{
			N:       n,
			Algebra: algebra.NameBoolPlan,
			Init:    func(int) cost.Cost { return 1 },
			F: func(i, k, j int) cost.Cost {
				if allowed[(i*sz+k)*sz+j] {
					return 1
				}
				return 0
			},
		}
		minIn := &recurrence.Instance{
			N:    n,
			Init: func(int) cost.Cost { return 0 },
			F: func(i, k, j int) cost.Cost {
				if allowed[(i*sz+k)*sz+j] {
					return 0
				}
				return cost.Inf
			},
		}
		feasible := hlvDense(boolIn).Cost() == 1
		minCost := hlvDense(minIn).Cost()
		if feasible != (minCost < cost.Inf) {
			t.Fatalf("seed %d: bool=%v but min-plus=%d", seed, feasible, minCost)
		}
	}
}

// The parallel solver must converge within the lemma budget for every
// semiring, not just reach the answer eventually.
func TestConvergenceWithinBudgetAllRings(t *testing.T) {
	const n = 9
	budget := core.DefaultIterations(n)
	for _, alg := range []string{algebra.NameMinPlus, algebra.NameMaxPlus, algebra.NameBoolPlan} {
		for seed := int64(0); seed < 4; seed++ {
			in := problems.RandomAlgebraInstance(alg, n, 30, seed)
			want := seq.BruteForce(in)
			got := hlvDense(in)
			if got.Iterations > budget {
				t.Fatalf("%s seed %d: ran %d iterations, budget %d", alg, seed, got.Iterations, budget)
			}
			if got.Cost() != want {
				t.Fatalf("%s seed %d: %d != %d after %d iterations",
					alg, seed, got.Cost(), want, got.Iterations)
			}
		}
	}
}

// Property: for min-plus, hlv-dense agrees with brute force on arbitrary
// random instances.
func TestMinPlusProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%7 + 2
		in := problems.RandomAlgebraInstance(algebra.NameMinPlus, n, 40, seed)
		return hlvDense(in).Cost() == seq.BruteForce(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
