package problems

import (
	"math"
	"math/bits"
)

// Worst-case totals of the closed-form families: the largest cost any
// tree of the instance can have, under min-plus and max-plus alike,
// computed with overflow-checked arithmetic that saturates at
// math.MaxInt64. A total below cost.Inf guarantees that every table
// value, and every candidate sum, is exact — at or past it a feasible
// instance could come back as "unreachable".

// ProductChainMaxCost bounds the cost of every tree over a product-cost
// chain: MatrixChain's dims, and WeightedTriangulation's vertex weights,
// whose F is the same x_i·x_k·x_j. A tree has len(xs)−2 internal nodes,
// each costing at most max(xs)³. xs must be positive.
func ProductChainMaxCost[T int | int64](xs []T) int64 {
	var m int64
	for _, x := range xs {
		m = max(m, int64(x))
	}
	return satMul(satMul(satMul(m, m), m), int64(max(len(xs)-2, 0)))
}

// OBSTMaxCost bounds the cost of every search tree over OBST's weights.
// The leaves add each alpha once and every internal node adds the total
// weight of its span, so each weight is counted at most once per level
// of a tree with at most N = len(alpha) levels: N·(Σalpha + Σbeta).
// The weights must be non-negative.
func OBSTMaxCost(alpha, beta []int64) int64 {
	var sum int64
	for _, w := range alpha {
		sum = satAdd(sum, w)
	}
	for _, w := range beta {
		sum = satAdd(sum, w)
	}
	return satMul(sum, int64(len(alpha)))
}

// IntervalSchedulingMaxCost bounds the weight of every schedule over
// IntervalScheduling's jobs: the sum of all weights, which also sizes
// the chain's dominated "no transition" penalty. The weights must be
// non-negative.
func IntervalSchedulingMaxCost(weights []int64) int64 {
	var sum int64
	for _, w := range weights {
		sum = satAdd(sum, w)
	}
	return sum
}

// satMul returns a·b for non-negative a and b, saturating at MaxInt64.
func satMul(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}

// satAdd returns a+b for non-negative a and b, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
