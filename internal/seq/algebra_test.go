package seq

import (
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/core"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
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
		want := Solve(primary).Cost()
		if got := Solve(declared).Cost(); got != want {
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
		want := BruteForce(in)
		if got := Solve(in).Cost(); got != want {
			t.Fatalf("seed %d: max-plus sequential %d != brute %d", seed, got, want)
		}
		if got := hlvDense(in).Cost(); got != want {
			t.Fatalf("seed %d: max-plus hlv-dense %d != brute %d", seed, got, want)
		}
	}
}
