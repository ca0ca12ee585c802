package problems

import (
	"fmt"
	"math/rand"
	"sort"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// This file constructs the chain-recurrence families: prefix dynamic
// programs c(j) = Combine_{k<j} Extend(c(k), F(k,j)) over the registered
// algebras. All three keep F finite — "impossible" transitions are
// encoded as a dominated finite penalty in the algebra's order, never as
// the algebra's Zero — so the sequential and LLP chain engines agree
// bitwise (see recurrence.Chain).

// SegmentedLeastSquares returns the segmented least squares chain over
// the points (xs[t], ys[t]): F(k,j) is the squared fitting error of one
// least-squares line through points k+1..j plus the per-segment penalty,
// and c(n) under min-plus is the cheapest segmentation. Errors are
// computed in float64 and fixed-pointed to thousandths ("milli-SSE"), so
// penalty is also in milli-units (penalty 2500 charges 2.5 squared-error
// units per segment). xs must be strictly increasing.
func SegmentedLeastSquares(xs, ys []int64, penalty int64) *recurrence.Chain {
	n := len(xs)
	if n < 1 || len(ys) != n {
		panic(fmt.Sprintf("problems: segmented least squares needs matching nonempty xs/ys, got %d/%d", len(xs), len(ys)))
	}
	if penalty < 0 {
		panic(fmt.Sprintf("problems: negative segment penalty %d", penalty))
	}
	for t := 1; t < n; t++ {
		if xs[t] <= xs[t-1] {
			panic(fmt.Sprintf("problems: xs must be strictly increasing, xs[%d]=%d after %d", t, xs[t], xs[t-1]))
		}
	}
	// Prefix moments over points 1..n make each segment error O(1), so
	// F is evaluated on demand from O(n) state instead of an (n+1)^2
	// table: mom[t] sums x, y, x², xy, y² over xs/ys[0..t-1]. The x
	// moments are centred on xs[0], which leaves every segment's fit
	// unchanged but keeps the float sums as small as the span of x
	// allows: raw sums of a series shifted far from 0 lose the low bits
	// the errors are made of, so a shifted twin would get another cost.
	// The offset is exact: xs is increasing, so xs[t]−xs[0] lies in
	// [0, 2^64) and its uint64 form is the true difference.
	mom := make([]moments, n+1)
	for t := 1; t <= n; t++ {
		x, y := float64(uint64(xs[t-1])-uint64(xs[0])), float64(ys[t-1])
		p := mom[t-1]
		mom[t] = moments{p.x + x, p.y + y, p.xx + x*x, p.xy + x*y, p.yy + y*y}
	}
	pen := cost.Cost(penalty)
	xc := append([]int64(nil), xs...)
	yc := append([]int64(nil), ys...)
	return &recurrence.Chain{
		N:    n,
		Name: fmt.Sprintf("segls-n%d", n),
		F: func(k, j int) cost.Cost {
			var w [1]cost.Cost
			segmentRow(mom, j, k, w[:], pen)
			return w[0]
		},
		FRow:    func(j, k0 int, dst []cost.Cost) { segmentRow(mom, j, k0, dst, pen) },
		Algebra: algebra.NameMinPlus,
		Canon:   func() []byte { return canon("segls", xc, yc, []int64{penalty}) },
	}
}

// moments are the prefix sums behind SegmentedLeastSquares.
type moments struct{ x, y, xx, xy, yy float64 }

// segmentRow is the segls FRow: dst[t] = F(k0+t, j), the least-squares
// line's squared error over points k0+t+1..j in milli-units, plus the
// segment penalty. F evaluates it on a one-element row, so the two share
// one float expression and agree bitwise; the j-side moments load once
// per row.
func segmentRow(mom []moments, j, k0 int, dst []cost.Cost, penalty cost.Cost) {
	hi := mom[j]
	lo := mom[k0 : k0+len(dst)]
	for t := range dst {
		m := float64(j - k0 - t)
		dx := hi.x - lo[t].x
		dy := hi.y - lo[t].y
		dxx := hi.xx - lo[t].xx
		dxy := hi.xy - lo[t].xy
		dyy := hi.yy - lo[t].yy
		var sse float64
		if den := m*dxx - dx*dx; den > 0 {
			slope := (m*dxy - dx*dy) / den
			intercept := (dy - slope*dx) / m
			sse = dyy - intercept*dy - slope*dxy
			if sse < 0 { // float rounding on perfect fits
				sse = 0
			}
		}
		dst[t] = cost.Cost(sse*1000+0.5) + penalty
	}
}

// RandomSeries returns n strictly increasing x coordinates and noisy
// piecewise-linear y values — ready-made SegmentedLeastSquares input for
// benchmarks and load generation.
func RandomSeries(n int, seed int64) (xs, ys []int64) {
	if n < 1 {
		panic("problems: RandomSeries needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	xs = make([]int64, n)
	ys = make([]int64, n)
	x, y := int64(0), int64(rng.Intn(41)-20)
	slope := int64(rng.Intn(9) - 4)
	for t := 0; t < n; t++ {
		x += 1 + int64(rng.Intn(3))
		if rng.Intn(16) == 0 { // new segment
			slope = int64(rng.Intn(9) - 4)
			y += int64(rng.Intn(41) - 20)
		}
		y += slope
		xs[t] = x
		ys[t] = y + int64(rng.Intn(5)-2)
	}
	return xs, ys
}

// IntervalScheduling returns the weighted interval scheduling chain:
// jobs are sorted by finish time, F(j-1,j) = 0 skips job j, F(p(j),j) =
// weights[j] takes it (p(j) = the last job finishing before job j
// starts), and every other transition carries the dominated finite
// penalty -(sum of weights)-1 instead of max-plus Zero, keeping F finite
// (see recurrence.Chain). c(n) under max-plus is the maximum total
// weight of any non-overlapping subset. The penalty is strictly below
// every prefix value, so only p(j) and j-1 can win: the chain declares
// that support, and the solve folds O(n) candidates instead of O(n²).
// Weights must be nonnegative, every start strictly before its end, and
// the weight total (IntervalSchedulingMaxCost) below cost.Inf.
func IntervalScheduling(starts, ends, weights []int64) *recurrence.Chain {
	n := len(starts)
	if n < 1 || len(ends) != n || len(weights) != n {
		panic(fmt.Sprintf("problems: interval scheduling needs matching nonempty starts/ends/weights, got %d/%d/%d",
			len(starts), len(ends), len(weights)))
	}
	order := make([]int, n)
	for t := range order {
		order[t] = t
	}
	for t := 0; t < n; t++ {
		if starts[t] >= ends[t] {
			panic(fmt.Sprintf("problems: job %d has start %d >= end %d", t, starts[t], ends[t]))
		}
		if weights[t] < 0 {
			panic(fmt.Sprintf("problems: job %d has negative weight %d", t, weights[t]))
		}
	}
	total := IntervalSchedulingMaxCost(weights)
	if total >= int64(cost.Inf) {
		panic(fmt.Sprintf("problems: interval scheduling weights total %d, must stay below %d", total, cost.Inf))
	}
	sort.Slice(order, func(a, b int) bool {
		oa, ob := order[a], order[b]
		if ends[oa] != ends[ob] {
			return ends[oa] < ends[ob]
		}
		if starts[oa] != starts[ob] {
			return starts[oa] < starts[ob]
		}
		return weights[oa] < weights[ob]
	})
	s := make([]int64, n)
	e := make([]int64, n)
	w := make([]int64, n)
	for t, o := range order {
		s[t], e[t], w[t] = starts[o], ends[o], weights[o]
	}
	// p[j] (1-indexed) = largest prefix length q such that sorted job q
	// (the q-th job) finishes no later than job j starts; 0 when none do.
	p := make([]int, n+1)
	for j := 1; j <= n; j++ {
		p[j] = sort.Search(n, func(q int) bool { return e[q] > s[j-1] })
	}
	noTake := -cost.Cost(total) - 1
	c := &recurrence.Chain{
		N:    n,
		Name: fmt.Sprintf("wis-n%d", n),
		F: func(k, j int) cost.Cost {
			if k == p[j] {
				return cost.Cost(w[j-1])
			}
			if k == j-1 {
				return 0
			}
			return noTake
		},
		FRow: func(j, k0 int, dst []cost.Cost) {
			for t := range dst {
				dst[t] = noTake
			}
			if skip := j - 1 - k0; 0 <= skip && skip < len(dst) {
				dst[skip] = 0
			}
			if take := p[j] - k0; 0 <= take && take < len(dst) {
				dst[take] = cost.Cost(w[j-1])
			}
		},
		Algebra: algebra.NameMaxPlus,
		Canon:   func() []byte { return canon("wis", s, e, w) },
	}
	// Every prefix value lies in [0, total], so a noTake candidate sums
	// below 0 <= c(j-1) + 0: only p(j) <= j-1 and j-1 can win.
	c.Support = func(j int, dst []int32) []int32 {
		lo := c.Lo(j)
		if p[j] >= lo && p[j] < j-1 {
			dst = append(dst, int32(p[j]))
		}
		return append(dst, int32(j-1))
	}
	return c
}

// RandomJobs returns n jobs with random spans and weights — ready-made
// IntervalScheduling input for benchmarks and load generation.
func RandomJobs(n int, seed int64) (starts, ends, weights []int64) {
	if n < 1 {
		panic("problems: RandomJobs needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	starts = make([]int64, n)
	ends = make([]int64, n)
	weights = make([]int64, n)
	for t := 0; t < n; t++ {
		starts[t] = int64(rng.Intn(4 * n))
		ends[t] = starts[t] + 1 + int64(rng.Intn(n/4+4))
		weights[t] = int64(1 + rng.Intn(100))
	}
	return starts, ends, weights
}

// SubsetSum returns the sum-feasibility chain over bool-plan: index j is
// the amount j, F(k,j) = 1 exactly when j-k is one of the items, and
// c(target) = 1 iff the target is a sum of items (each usable any number
// of times — coin-style feasibility, the natural chain reading where
// every prefix may extend by any item). The window is the largest item:
// longer transitions are structurally impossible, so windowing skips
// them without changing the answer — and exercises the engines' windowed
// path on a shipped family. Every other transition is bool-plan's Zero,
// so the chain declares the support {j - item}: O(items) candidates per
// amount, the textbook O(n·items) scan. Items must be positive;
// target >= 1.
func SubsetSum(target int64, items []int64) *recurrence.Chain {
	if target < 1 {
		panic(fmt.Sprintf("problems: subset sum needs target >= 1, got %d", target))
	}
	if len(items) == 0 {
		panic("problems: subset sum needs at least one item")
	}
	sorted := append([]int64(nil), items...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	dedup := sorted[:1]
	for _, v := range sorted[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	if dedup[0] < 1 {
		panic(fmt.Sprintf("problems: subset sum items must be positive, got %d", dedup[0]))
	}
	maxItem := dedup[len(dedup)-1]
	window := maxItem
	if window > target {
		window = target
	}
	isItem := make([]bool, maxItem+1)
	for _, v := range dedup {
		isItem[v] = true
	}
	c := &recurrence.Chain{
		N:    int(target),
		Name: fmt.Sprintf("subsetsum-t%d", target),
		F: func(k, j int) cost.Cost {
			if d := int64(j - k); d <= maxItem && isItem[d] {
				return 1
			}
			return 0
		},
		FRow: func(j, k0 int, dst []cost.Cost) {
			for t := range dst {
				if d := int64(j - k0 - t); d <= maxItem && isItem[d] {
					dst[t] = 1
				} else {
					dst[t] = 0
				}
			}
		},
		Window:  int(window),
		Algebra: algebra.NameBoolPlan,
		Canon:   func() []byte { return canon("subsetsum", []int64{target}, dedup) },
	}
	// Largest item first gives ascending k = j - item.
	c.Support = func(j int, dst []int32) []int32 {
		lo := int64(c.Lo(j))
		for t := len(dedup) - 1; t >= 0; t-- {
			if k := int64(j) - dedup[t]; k >= lo {
				dst = append(dst, int32(k))
			}
		}
		return dst
	}
	return c
}

// RandomChain returns a fully random chain: every F(k,j) drawn uniformly
// from [0, maxW], optionally windowed. Like RandomInstance it has no
// Canon and no declared algebra, so property tests can run it under
// every registered semiring to cross-validate the chain engines on
// unstructured inputs.
func RandomChain(n, maxW, window int, seed int64) *recurrence.Chain {
	if n < 1 || maxW < 0 || window < 0 {
		panic("problems: RandomChain needs n >= 1, maxW >= 0 and window >= 0")
	}
	rng := rand.New(rand.NewSource(seed))
	size := n + 1
	f := make([]cost.Cost, size*size)
	for k := 0; k < n; k++ {
		for j := k + 1; j <= n; j++ {
			f[k*size+j] = cost.Cost(rng.Intn(maxW + 1))
		}
	}
	return &recurrence.Chain{
		N:    n,
		Name: fmt.Sprintf("chainrand-n%d-s%d", n, seed),
		F:    func(k, j int) cost.Cost { return f[k*size+j] },
		FRow: func(j, k0 int, dst []cost.Cost) {
			for t := range dst {
				dst[t] = f[(k0+t)*size+j]
			}
		},
		Window: window,
	}
}
