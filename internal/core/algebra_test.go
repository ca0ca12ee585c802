package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

func hlvDense(in *recurrence.Instance) *Result {
	return Solve(in, Options{Variant: Dense})
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
	budget := DefaultIterations(n)
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
