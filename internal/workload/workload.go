// Package workload generates realistic instances of the paper's three
// applications — the workloads its introduction motivates ("optimal
// control, industrial engineering, and economics" via matrix products,
// compiler/search-structure construction via OBST, geometry via
// triangulation). The generators are deterministic given a seed, so
// experiments and benchmarks are reproducible.
//
// The chain families — TelemetrySeries (segmented least squares),
// JobSchedule (weighted interval scheduling) and CoinFeasibility
// (subset sum) — are the 1D prefix-recurrence counterparts, one per
// registered semiring.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
)

// Zipf returns n integer weights following a Zipf distribution with the
// given exponent s (weight of rank r proportional to 1/r^s), scaled so
// the largest weight is `scale`. Rank order is shuffled with the seed so
// the heavy keys are spread across positions, as in real key sets.
func Zipf(n int, s float64, scale int64, seed int64) []int64 {
	if n < 1 || s <= 0 || scale < 1 {
		panic(fmt.Sprintf("workload: bad Zipf parameters n=%d s=%v scale=%d", n, s, scale))
	}
	ws := make([]int64, n)
	for r := 0; r < n; r++ {
		w := float64(scale) / math.Pow(float64(r+1), s)
		if w < 1 {
			w = 1
		}
		ws[r] = int64(w)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

// DictionaryOBST builds an optimal-BST instance for a dictionary of m
// keys whose access frequencies are Zipf-distributed (the classic
// motivation: a static keyword table). Gap weights model unsuccessful
// lookups at a fraction of the key mass.
func DictionaryOBST(m int, seed int64) *recurrence.Instance {
	beta := Zipf(m, 1.07, 10_000, seed)
	alpha := make([]int64, m+1)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range alpha {
		alpha[i] = 1 + rng.Int63n(200)
	}
	in := problems.OBST(alpha, beta)
	in.Name = fmt.Sprintf("dictionary-obst-m%d-s%d", m, seed)
	return in
}

// MLPChain returns the matrix-chain instance for evaluating the product
// of an MLP's weight matrices against a single input vector — the shape
// of an inference-time composition W_L * ... * W_1 * x. Layer widths
// interpolate from `in` to `out` through `hidden`, a realistic case where
// association order changes the multiplication count by orders of
// magnitude.
func MLPChain(layers int, inDim, hidden, outDim int) *recurrence.Instance {
	if layers < 1 || inDim < 1 || hidden < 1 || outDim < 1 {
		panic("workload: bad MLP parameters")
	}
	dims := make([]int, 0, layers+2)
	dims = append(dims, 1) // the input vector as a 1 x inDim row
	dims = append(dims, inDim)
	for l := 1; l < layers; l++ {
		dims = append(dims, hidden)
	}
	dims = append(dims, outDim)
	inst := problems.MatrixChain(dims)
	inst.Name = fmt.Sprintf("mlp-chain-l%d-%dx%dx%d", layers, inDim, hidden, outDim)
	return inst
}

// WorstCaseChainDims returns the dimension list of one WorstCaseChain
// instance — exported separately so cmd/dploadgen can render the exact
// same family as wire requests without duplicating the sampler.
func WorstCaseChainDims(n int, seed int64) []int {
	if n < 2 {
		panic("workload: WorstCaseChain needs n >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	dims := make([]int, n+1)
	dims[0] = 1
	for i := 1; i <= n; i++ {
		dims[i] = 8 + rng.Intn(4*n)
	}
	return dims
}

// WorstCaseChain returns the max-plus twin of a realistic inference
// chain: the adversarial evaluation-order bound for an MLP-shaped matrix
// product with jittered layer widths. Planners fire these alongside the
// min-plus mix to price the best-vs-worst association spread.
func WorstCaseChain(n int, seed int64) *recurrence.Instance {
	in := problems.WorstCaseMatrixChain(WorstCaseChainDims(n, seed))
	in.Name = fmt.Sprintf("worstchain-n%d-s%d", n, seed)
	return in
}

// FeasibilityPlan returns a bool-plan forbidden-split instance over n
// objects — the shape of "can this product be evaluated without ever
// materialising one of these intermediates" constraint queries. Three of
// every four seeds ban a random ~n/3-sized span set (almost always
// feasible: sparse bans rarely block all Catalan-many trees); every
// fourth seed bans the complete span-2 layer, a constraint wall no tree
// avoids (every parenthesization pairs two adjacent objects somewhere),
// so load mixes deterministically exercise both outcomes end to end.
func FeasibilityPlan(n int, seed int64) *recurrence.Instance {
	in := problems.ForbiddenSplits(n, FeasibilitySpans(n, seed))
	in.Name = fmt.Sprintf("feasibilityplan-n%d-s%d", n, seed)
	return in
}

// FeasibilitySpans returns the forbidden-span set of one FeasibilityPlan
// instance — exported separately so cmd/dploadgen can render the exact
// same family as wire requests without duplicating the sampler.
func FeasibilitySpans(n int, seed int64) [][2]int {
	if n < 2 {
		panic("workload: FeasibilityPlan needs n >= 2")
	}
	var forbidden [][2]int
	if seed%4 == 3 {
		for i := 0; i+2 <= n; i++ {
			forbidden = append(forbidden, [2]int{i, i + 2})
		}
		return forbidden
	}
	if n == 2 {
		return nil // the root is the only span of two or more objects
	}
	rng := rand.New(rand.NewSource(seed))
	m := 1 + n/3
	for len(forbidden) < m {
		i := rng.Intn(n)
		j := i + 2 + rng.Intn(n-i) // spans >= 2: never ban a leaf outright
		if j > n {
			continue
		}
		if i == 0 && j == n {
			continue // banning the root is a trivial infeasibility
		}
		forbidden = append(forbidden, [2]int{i, j})
	}
	return forbidden
}

// TelemetrySeries returns a segmented-least-squares chain over a noisy
// piecewise-linear series — the "fit a changing trend with as few
// segments as the penalty justifies" shape of telemetry compression and
// changepoint detection. Min-plus.
func TelemetrySeries(n int, seed int64) *recurrence.Chain {
	xs, ys := problems.RandomSeries(n, seed)
	c := problems.SegmentedLeastSquares(xs, ys, 500+(seed%7)*250)
	c.Name = fmt.Sprintf("telemetry-series-n%d-s%d", n, seed)
	return c
}

// JobSchedule returns a weighted-interval-scheduling chain over n jobs
// with overlapping spans and skewed weights — the booking/reservation
// shape where the optimum must skip locally attractive jobs. Max-plus.
func JobSchedule(n int, seed int64) *recurrence.Chain {
	starts, ends, weights := problems.RandomJobs(n, seed)
	c := problems.IntervalScheduling(starts, ends, weights)
	c.Name = fmt.Sprintf("job-schedule-n%d-s%d", n, seed)
	return c
}

// CoinFeasibility returns a subset-sum chain asking whether `target` is
// reachable from a small random coin system — the denomination-coverage
// query shape. Every fourth seed uses a coprime-free system ({2k, 4k,
// 6k}) against an odd target, a deterministic infeasibility, so load
// mixes exercise both outcomes. Bool-plan.
func CoinFeasibility(target int64, seed int64) *recurrence.Chain {
	c := problems.SubsetSum(target, CoinSystem(target, seed))
	c.Name = fmt.Sprintf("coin-feasibility-t%d-s%d", target, seed)
	return c
}

// CoinSystem returns the item set of one CoinFeasibility instance —
// exported separately so cmd/dploadgen can render the exact same family
// as wire requests without duplicating the sampler.
func CoinSystem(target int64, seed int64) []int64 {
	if target < 2 {
		panic("workload: CoinFeasibility needs target >= 2")
	}
	if seed%4 == 3 {
		k := 1 + seed%3
		return []int64{2 * k, 4 * k, 6 * k} // all even: odd targets unreachable
	}
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)
	items := make([]int64, m)
	for i := range items {
		items[i] = 1 + rng.Int63n(target/2+1)
	}
	return items
}

// SensorPolygon returns a triangulation instance over a convex polygon
// whose radii jitter around a circle — the "coverage mesh" shape used in
// terrain and sensor-field triangulation demos.
func SensorPolygon(n int, radius int64, jitter float64, seed int64) *recurrence.Instance {
	if n < 2 || radius < 1 || jitter < 0 || jitter >= 1 {
		panic("workload: bad polygon parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	angles := make([]float64, n+1)
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	for i := 1; i < len(angles); i++ {
		for k := i; k > 0 && angles[k] < angles[k-1]; k-- {
			angles[k], angles[k-1] = angles[k-1], angles[k]
		}
	}
	vs := make([]problems.Point, n+1)
	for t := range vs {
		// Jitter the radius but keep the polygon convex by bounding the
		// perturbation well below the chord sagitta; small jitter keeps
		// angular monotonicity, which is what the solvers require.
		r := float64(radius) * (1 - jitter*rng.Float64())
		vs[t] = problems.Point{
			X: int64(math.Round(r * math.Cos(angles[t]))),
			Y: int64(math.Round(r * math.Sin(angles[t]))),
		}
	}
	in := problems.Triangulation(vs)
	in.Name = fmt.Sprintf("sensor-polygon-n%d-s%d", n, seed)
	return in
}
