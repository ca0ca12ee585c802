package exper

import (
	"sublineardp/internal/algebra"
	"sublineardp/internal/core"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
)

// E12Semirings exercises the generalisation of the algorithm to arbitrary
// idempotent semirings (an extension beyond the paper; see
// internal/algebra): min-plus (the paper), max-plus (costliest
// parenthesization) and boolean feasibility all converge within the
// Lemma 3.3 budget because the pebbling argument never uses more than
// idempotency, distributivity and monotonicity. Each run is the dense
// HLV engine at its fixed iteration budget, checked against the
// algebra-generic brute force.
func E12Semirings(cfg Config) []*Table {
	sizes := []int{6, 8, 10, 12}
	seeds := []int64{1, 2, 3}
	if cfg.Quick {
		sizes = []int{6, 8}
		seeds = []int64{1}
	}

	t := &Table{
		ID:       "E12",
		Title:    "Idempotent-semiring generalisation: agreement with brute force (runs passed/total)",
		PaperRef: "extension: the paper's scheme over (min,+), (max,+) and (or,and)",
		Columns:  []string{"semiring", "passed", "iterations used (= budget)"},
	}

	for _, alg := range []string{algebra.NameMinPlus, algebra.NameMaxPlus, algebra.NameBoolPlan} {
		passed, total, iters := 0, 0, 0
		for _, n := range sizes {
			for _, seed := range seeds {
				in := problems.RandomAlgebraInstance(alg, n, 39, seed)
				total++
				res := core.Solve(in, core.Options{Variant: core.Dense, Termination: core.FixedIterations})
				iters = res.Iterations
				if res.Cost() == seq.BruteForce(in) {
					passed++
				}
			}
		}
		t.AddRow(alg, fmtFrac(passed, total), iters)
	}
	t.Note("counting parenthesizations ((+,*), non-idempotent) is deliberately unsupported: re-Combining the same tree across iterations would overcount")
	return []*Table{t}
}
