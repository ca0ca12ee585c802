package problems

import (
	"bytes"
	"testing"

	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

func TestSegmentedLeastSquaresExactFit(t *testing.T) {
	// Collinear points fit one segment with zero error: optimum is
	// exactly one penalty.
	xs := []int64{1, 2, 3, 4, 5, 6}
	ys := []int64{3, 5, 7, 9, 11, 13}
	c := SegmentedLeastSquares(xs, ys, 2500)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res := seq.SolveChain(c)
	if res.Cost() != 2500 {
		t.Fatalf("collinear optimum = %d, want one penalty 2500", res.Cost())
	}
	if got := res.Path(); len(got) != 2 || got[0] != 0 || got[1] != 6 {
		t.Fatalf("collinear segmentation = %v, want [0 6]", got)
	}
}

func TestSegmentedLeastSquaresBreaksSegments(t *testing.T) {
	// Two perfect lines with a sharp corner: with a small penalty the
	// optimum is two segments meeting at the corner, costing 2 penalties.
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []int64{1, 2, 3, 4, 3, 2, 1, 0}
	c := SegmentedLeastSquares(xs, ys, 10)
	res := seq.SolveChain(c)
	if res.Cost() != 20 {
		t.Fatalf("corner optimum = %d, want 20 (two zero-error segments)", res.Cost())
	}
	path := res.Path()
	if len(path) != 3 {
		t.Fatalf("corner segmentation = %v, want two segments", path)
	}
}

func TestSegmentedLeastSquaresPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch":       func() { SegmentedLeastSquares([]int64{1, 2}, []int64{1}, 0) },
		"empty":          func() { SegmentedLeastSquares(nil, nil, 0) },
		"not-increasing": func() { SegmentedLeastSquares([]int64{1, 1}, []int64{0, 0}, 0) },
		"neg-penalty":    func() { SegmentedLeastSquares([]int64{1}, []int64{1}, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIntervalSchedulingKnownOptimum(t *testing.T) {
	// Jobs: [1,4) w=3, [3,5) w=5, [0,6) w=4, [5,7) w=2, [6,8) w=6.
	// Best is {[3,5), [6,8)} = 11 (or [1,4)+[5,7)... = 3+2=5; [3,5)+[5,7)=7).
	starts := []int64{1, 3, 0, 5, 6}
	ends := []int64{4, 5, 6, 7, 8}
	weights := []int64{3, 5, 4, 2, 6}
	c := IntervalScheduling(starts, ends, weights)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res := seq.SolveChain(c)
	if res.Cost() != 11 {
		t.Fatalf("WIS optimum = %d, want 11", res.Cost())
	}
}

// A weight total at or above cost.Inf would wrap the dominated penalty
// -(total)-1 and with it the support claim: the constructor refuses it.
func TestIntervalSchedulingPanicsOnWeightOverflow(t *testing.T) {
	for name, weights := range map[string][]int64{
		"wraps":        {4e18, 4e18, 4e18},
		"at the bound": {int64(cost.Inf) - 1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			IntervalScheduling([]int64{0, 10, 20}[:len(weights)], []int64{5, 15, 25}[:len(weights)], weights)
		}()
	}
	IntervalScheduling([]int64{0, 10}, []int64{5, 15}, []int64{int64(cost.Inf) - 2, 1}) // just under: no panic
}

func TestIntervalSchedulingAllOverlap(t *testing.T) {
	// Pairwise-overlapping jobs: the optimum takes exactly the heaviest.
	c := IntervalScheduling([]int64{0, 1, 2}, []int64{10, 11, 12}, []int64{4, 9, 6})
	if res := seq.SolveChain(c); res.Cost() != 9 {
		t.Fatalf("overlap optimum = %d, want 9", res.Cost())
	}
}

func TestIntervalSchedulingOrderInsensitiveCanon(t *testing.T) {
	a := IntervalScheduling([]int64{1, 3}, []int64{2, 5}, []int64{7, 8})
	b := IntervalScheduling([]int64{3, 1}, []int64{5, 2}, []int64{8, 7})
	ca, _ := a.Canonical()
	cb, _ := b.Canonical()
	if !bytes.Equal(ca, cb) {
		t.Fatal("the same job set in a different order canonicalised differently")
	}
}

func TestSubsetSumFeasibility(t *testing.T) {
	cases := []struct {
		target int64
		items  []int64
		want   cost.Cost
	}{
		{11, []int64{4, 9}, 0}, // 4a+9b never hits 11
		{17, []int64{4, 9}, 1}, // 4+4+9
		{8, []int64{4, 9}, 1},  // 4+4 (repetition allowed)
		{3, []int64{4, 9}, 0},  // below every item
		{9, []int64{9, 9, 4}, 1},
		{1, []int64{2}, 0},
	}
	for _, tc := range cases {
		c := SubsetSum(tc.target, tc.items)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if res := seq.SolveChain(c); res.Cost() != tc.want {
			t.Fatalf("SubsetSum(%d, %v) = %d, want %d", tc.target, tc.items, res.Cost(), tc.want)
		}
	}
}

func TestSubsetSumWindowMatchesUnwindowed(t *testing.T) {
	c := SubsetSum(40, []int64{7, 12, 5})
	if c.Window != 12 {
		t.Fatalf("window = %d, want the largest item 12", c.Window)
	}
	unwindowed := *c
	unwindowed.Window = 0
	a, b := seq.SolveChain(c), seq.SolveChain(&unwindowed)
	if !a.Values.Equal(b.Values) {
		t.Fatalf("windowing changed the vector: %v", a.Values.Diff(b.Values, 3))
	}
}

func TestChainCanonSeparatesFamilies(t *testing.T) {
	seen := map[string]string{}
	for _, c := range []interface {
		Canonical() ([]byte, bool)
	}{
		SegmentedLeastSquares([]int64{1, 2, 3}, []int64{1, 2, 3}, 5),
		IntervalScheduling([]int64{1, 2, 3}, []int64{2, 3, 4}, []int64{1, 2, 3}),
		SubsetSum(3, []int64{1, 2, 3}),
	} {
		b, ok := c.Canonical()
		if !ok {
			t.Fatal("shipped chain family without a canonical encoding")
		}
		if prev, dup := seen[string(b)]; dup {
			t.Fatalf("canonical collision with %s", prev)
		}
		seen[string(b)] = string(b)
	}
}

func TestChainGeneratorsAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := int(seed)*7 + 3
		xs, ys := RandomSeries(n, seed)
		s, e, w := RandomJobs(n, seed)
		for _, c := range []interface{ Validate() error }{
			SegmentedLeastSquares(xs, ys, 100),
			IntervalScheduling(s, e, w),
			SubsetSum(int64(n*3), []int64{2, int64(n), 7}),
			RandomChain(n, 25, n/2, seed),
		} {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The declared supports of wis and subset sum must hold, index by index
// in values and predecessors (Chain.Validate), under every window —
// the window clips the support through the chain's own Lo.
func TestChainSupportsHoldUnderWindows(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		n := int(seed)*5 + 1
		s, e, w := RandomJobs(n, seed)
		items := []int64{seed%5 + 1, seed%7 + 3, int64(n)%9 + 2}
		for _, window := range []int{0, 1, 3, 7} {
			for _, c := range []*recurrence.Chain{
				IntervalScheduling(s, e, w),
				SubsetSum(int64(n)+5, items),
			} {
				c.Window = window
				if err := c.Validate(); err != nil {
					t.Fatalf("seed %d window %d: %v", seed, window, err)
				}
				if got, dense := c.NumCandidates(), denseCandidates(c); got > dense || (n > 8 && window == 0 && got >= dense) {
					t.Fatalf("%s window %d: support folds %d candidates, dense %d", c.Name, window, got, dense)
				}
			}
		}
	}
}

// denseCandidates counts every (k,j) pair c's window admits.
func denseCandidates(c *recurrence.Chain) int64 {
	var total int64
	for j := 1; j <= c.N; j++ {
		total += int64(j - c.Lo(j))
	}
	return total
}

// Exhaustive recursion over breakpoint sequences agrees with the DP for
// every family at tiny sizes — ground truth independent of sweep order.
func TestChainBruteForceAgreement(t *testing.T) {
	xs, ys := RandomSeries(7, 3)
	s, e, w := RandomJobs(6, 4)
	for _, c := range []*recurrence.Chain{
		SegmentedLeastSquares(xs, ys, 50),
		IntervalScheduling(s, e, w),
		SubsetSum(9, []int64{2, 5}),
		RandomChain(8, 12, 0, 11),
		RandomChain(8, 12, 3, 12),
	} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		got := seq.SolveChain(c).Cost()
		want := seq.BruteForceChain(c)
		if got != want {
			t.Fatalf("%s: DP %d, brute force %d", c.Name, got, want)
		}
	}
}

// eagerSegLSTable fills the full (n+1)^2 segls weight table up front,
// one entry per (k,j) from separate prefix-sum arrays over x centred on
// xs[0] — the reference the on-demand F and FRow must reproduce
// bitwise.
func eagerSegLSTable(xs, ys []int64, penalty int64) []cost.Cost {
	n := len(xs)
	sx := make([]float64, n+1)
	sy := make([]float64, n+1)
	sxx := make([]float64, n+1)
	sxy := make([]float64, n+1)
	syy := make([]float64, n+1)
	for t := 1; t <= n; t++ {
		x, y := float64(xs[t-1]-xs[0]), float64(ys[t-1])
		sx[t] = sx[t-1] + x
		sy[t] = sy[t-1] + y
		sxx[t] = sxx[t-1] + x*x
		sxy[t] = sxy[t-1] + x*y
		syy[t] = syy[t-1] + y*y
	}
	size := n + 1
	tab := make([]cost.Cost, size*size)
	for k := 0; k < n; k++ {
		for j := k + 1; j <= n; j++ {
			m := float64(j - k)
			dx := sx[j] - sx[k]
			dy := sy[j] - sy[k]
			dxx := sxx[j] - sxx[k]
			dxy := sxy[j] - sxy[k]
			dyy := syy[j] - syy[k]
			var sse float64
			if den := m*dxx - dx*dx; den > 0 {
				slope := (m*dxy - dx*dy) / den
				intercept := (dy - slope*dx) / m
				sse = dyy - intercept*dy - slope*dxy
				if sse < 0 {
					sse = 0
				}
			}
			tab[k*size+j] = cost.Cost(sse*1000+0.5) + cost.Cost(penalty)
		}
	}
	return tab
}

// TestSegmentedLeastSquaresMatchesEagerTable pins the on-demand F and
// FRow of segls to the eager error table, bitwise, on noisy series and
// on series with collinear (perfect-fit) runs, where the float rounding
// clamp decides the answer.
func TestSegmentedLeastSquaresMatchesEagerTable(t *testing.T) {
	for _, n := range []int{1, 2, 48, 300} {
		noisyX, noisyY := RandomSeries(n, int64(n))
		lineX := make([]int64, n)
		lineY := make([]int64, n)
		for i := range lineX {
			lineX[i] = int64(3*i + 1)
			lineY[i] = int64(7*i - 50)
			if i >= n/2 { // second collinear run with another slope
				lineY[i] = int64(-2*i + 9*n)
			}
		}
		for name, series := range map[string][2][]int64{
			"noisy":     {noisyX, noisyY},
			"collinear": {lineX, lineY},
		} {
			xs, ys := series[0], series[1]
			const penalty = 1700
			c := SegmentedLeastSquares(xs, ys, penalty)
			want := eagerSegLSTable(xs, ys, penalty)
			size := n + 1
			row := make([]cost.Cost, n)
			for j := 1; j <= n; j++ {
				for k := 0; k < j; k++ {
					if got := c.F(k, j); got != want[k*size+j] {
						t.Fatalf("%s n=%d: F(%d,%d) = %d, eager table %d", name, n, k, j, got, want[k*size+j])
					}
				}
				for _, k0 := range []int{0, j / 2, j - 1} {
					dst := row[:j-k0]
					c.FRow(j, k0, dst)
					for t2, got := range dst {
						if k := k0 + t2; got != want[k*size+j] {
							t.Fatalf("%s n=%d: FRow(%d,%d)[%d] = %d, eager table F(%d,%d) = %d",
								name, n, j, k0, t2, got, k, j, want[k*size+j])
						}
					}
				}
			}
		}
	}
}
