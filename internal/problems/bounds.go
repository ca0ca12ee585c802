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

// TriangulationMaxCost bounds the cost of every triangulation of the
// polygon vs. Each of its len(vs)−2 triangles has three sides, and a
// side's weight round(1024·hypot(dx, dy)) is at most 1024·D, where D is
// the sum of the x and y coordinate spans: hypot(dx, dy) ≤ |dx|+|dy|,
// strictly by at least 1/2 when both are nonzero, which absorbs the
// float rounding of hypot. A bound below cost.Inf also keeps every
// coordinate difference dist takes inside int64.
func TriangulationMaxCost(vs []Point) int64 {
	if len(vs) == 0 {
		return 0
	}
	minX, maxX, minY, maxY := vs[0].X, vs[0].X, vs[0].Y, vs[0].Y
	for _, v := range vs {
		minX, maxX = min(minX, v.X), max(maxX, v.X)
		minY, maxY = min(minY, v.Y), max(maxY, v.Y)
	}
	side := satMul(1024, satAdd(satSpan(minX, maxX), satSpan(minY, maxY)))
	return satMul(side, 3*int64(max(len(vs)-2, 0)))
}

// SegmentedLeastSquaresMaxCost bounds the cost of every segmentation of
// SegmentedLeastSquares over the points (x, y): a segment's
// least-squares error is at most the sum of its ys squared (the zero
// line fits no better), the segments partition the points, and each of
// at most len(pts) segments adds the penalty plus at most 1 for
// rounding its milli-error: 1000·Σy² + len(pts)·(penalty+1). A bound
// below cost.Inf keeps every segment's sse·1000 inside int64 and the y
// moments exact in float64. The penalty must be non-negative.
func SegmentedLeastSquaresMaxCost(pts []Point, penalty int64) int64 {
	var sq int64
	for _, p := range pts {
		a := satAbs(p.Y)
		sq = satAdd(sq, satMul(a, a))
	}
	return satAdd(satMul(1000, sq), satMul(int64(len(pts)), satAdd(penalty, 1)))
}

// satSpan returns hi−lo for lo ≤ hi, saturating at MaxInt64.
func satSpan(lo, hi int64) int64 {
	return int64(min(uint64(hi)-uint64(lo), math.MaxInt64))
}

// satAbs returns |a|, saturating at MaxInt64.
func satAbs(a int64) int64 {
	if a == math.MinInt64 {
		return math.MaxInt64
	}
	return max(a, -a)
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
