package problems

import (
	"cmp"
	"fmt"
	"slices"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// The families in this file are only expressible now that every engine
// is generic over the algebra: they declare a non-min-plus semiring on
// the instance itself, and their Canon hooks make them servable and
// cacheable — the algebra tag folded into Instance.Canonical keeps them
// from ever colliding with their min-plus twins.

// WorstCaseMatrixChain returns the max-plus twin of MatrixChain: the
// same decomposition costs, but the optimum sought is the *costliest*
// parenthesization — the adversarial bound planners and schedulers
// compare an evaluation order against ("how bad can an uninformed
// association get"). c(0,n) is the maximal multiplication count.
func WorstCaseMatrixChain(dims []int) *recurrence.Instance {
	if len(dims) < 2 {
		panic(fmt.Sprintf("problems: worst-case matrix chain needs >= 2 dimensions, got %d", len(dims)))
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("problems: nonpositive matrix dimension %d", d))
		}
	}
	d, w := dimWeights(dims)
	return &recurrence.Instance{
		N:        len(dims) - 1,
		Name:     fmt.Sprintf("worstchain-n%d", len(dims)-1),
		Algebra:  algebra.NameMaxPlus,
		Canon:    func() []byte { return canon("worstchain", d) },
		Init:     func(i int) cost.Cost { return 0 },
		F:        func(i, k, j int) cost.Cost { return w[i] * w[k] * w[j] },
		FProduct: w,
	}
}

// ForbiddenSplits returns the bool-plan feasibility family over n
// objects: a parenthesization is sought that never creates any of the
// forbidden subexpressions (i,j) — every split of a node (i,j) in the
// list is banned (F = 0), and a forbidden leaf (i,i+1) is infeasible
// outright (Init = 0). c(0,n) is 1 exactly when such a parenthesization
// exists. Pairs must satisfy 0 <= i < j <= n; duplicates are tolerated.
// The forbidden list is snapshotted, sorted and deduplicated, so the
// canonical encoding is order-independent.
//
// The bans are kept as a sorted list per row (4 B per pair plus 4 B per
// row), and F, FSpan and Init binary-search row i. F does not depend on
// k, so the instance declares it as FSpan: the tile engines look a span
// up once per cell, not once per candidate.
func ForbiddenSplits(n int, forbidden [][2]int) *recurrence.Instance {
	if n < 1 {
		panic(fmt.Sprintf("problems: ForbiddenSplits needs n >= 1, got %d", n))
	}
	pairs := make([][2]int, len(forbidden))
	copy(pairs, forbidden)
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= p[1] || p[1] > n {
			panic(fmt.Sprintf("problems: forbidden pair (%d,%d) outside 0 <= i < j <= %d", p[0], p[1], n))
		}
	}
	slices.SortFunc(pairs, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	pairs = slices.Compact(pairs)
	// CSR: row i's banned right ends, ascending, are
	// ends[rowStart[i]:rowStart[i+1]].
	rowStart := make([]int32, n+2)
	ends := make([]int32, len(pairs))
	flat := make([]int64, 0, 2*len(pairs))
	for t, p := range pairs {
		rowStart[p[0]+1]++
		ends[t] = int32(p[1])
		flat = append(flat, int64(p[0]), int64(p[1]))
	}
	for i := 1; i < len(rowStart); i++ {
		rowStart[i] += rowStart[i-1]
	}
	bans := func(i int) []int32 { return ends[rowStart[i]:rowStart[i+1]] }
	banned := func(i, j int) bool {
		_, bad := slices.BinarySearch(bans(i), int32(j))
		return bad
	}
	allowed := func(i, j int) cost.Cost {
		if banned(i, j) {
			return 0
		}
		return 1
	}
	return &recurrence.Instance{
		N:       n,
		Name:    fmt.Sprintf("forbiddensplit-n%d-m%d", n, len(pairs)),
		Algebra: algebra.NameBoolPlan,
		Canon:   func() []byte { return canon("boolsplit", []int64{int64(n)}, flat) },
		Init: func(i int) cost.Cost {
			if banned(i, i+1) {
				return 0
			}
			return 1
		},
		F:     func(i, k, j int) cost.Cost { return allowed(i, j) },
		FSpan: allowed,
	}
}

// RandomAlgebraInstance is RandomInstance under a declared algebra, the
// random input for cross-algebra agreement tests. Bool-plan draws every
// f(i,k,j) from {0,1} with feasible leaves (init 1), so a root's
// feasibility turns on the splits alone; every other algebra draws f and
// init from [0, maxW].
func RandomAlgebraInstance(alg string, n, maxW int, seed int64) *recurrence.Instance {
	if alg == algebra.NameBoolPlan {
		maxW = 1
	}
	in := RandomInstance(n, maxW, seed)
	in.Name = alg + "-" + in.Name
	in.Algebra = alg
	if alg == algebra.NameBoolPlan {
		in.Init = func(int) cost.Cost { return 1 }
	}
	return in
}
