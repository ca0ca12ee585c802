package problems_test

import (
	"fmt"
	"sync"
	"testing"

	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/workload"
)

// banCase is one ForbiddenSplits input with its pairs as given: the
// oracle below rebuilds the ban set from them independently of the
// instance's own ban list.
type banCase struct {
	name  string
	n     int
	pairs [][2]int
}

func banCases() []banCase {
	cs := []banCase{
		{"none-n1", 1, nil},
		{"leaf-n1", 1, [][2]int{{0, 1}}},
		{"none-n40", 40, nil},
		{"leaves", 30, [][2]int{{0, 1}, {7, 8}, {29, 30}, {13, 14}}},
		{"duplicates", 25, [][2]int{{3, 9}, {3, 9}, {0, 25}, {3, 9}, {0, 25}, {12, 13}, {12, 13}}},
	}
	// Bans on the first and the last cell of every run a 7-wide tile
	// geometry produces: j = lo(J) and j = hi(J)-1 for each block J.
	var edges [][2]int
	for i := 0; i < 60; i += 5 {
		for j := i + 1; j <= 60; j++ {
			if j%7 == 0 || j%7 == 6 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	cs = append(cs, banCase{"run-edges", 60, edges})
	// FeasibilitySpans needs n >= 2; the n=1 cases are the two above.
	for _, n := range []int{2, 3, 48, 513} {
		for seed := int64(0); seed < 4; seed++ { // seed 3 is the span-2 wall
			cs = append(cs, banCase{fmt.Sprintf("spans-n%d-s%d", n, seed), n, workload.FeasibilitySpans(n, seed)})
		}
	}
	return cs
}

// runShapes lists the (i, k, j0, m) runs the tile engines hand FPanel
// under tile edge b: phase A and the off-diagonal block-I fold (one
// whole block-J run per split), and the closure's forward sweeps (from
// k+1 to the end of k's block). Each run has i < k < j0 and ends at or
// before n.
func runShapes(n, b int, visit func(i, k, j0, m int)) {
	size := n + 1
	for i := 0; i < n; i++ {
		for lo := 0; lo < size; lo += b {
			hi := min(lo+b, size)
			if lo > i+1 {
				visit(i, i+1, lo, hi-lo)
				visit(i, lo-1, lo, hi-lo)
			}
		}
		for k := i + 1; k < n; k++ {
			hi := min((k/b+1)*b, size)
			if hi > k+1 {
				visit(i, k, k+1, hi-k-1)
			}
		}
	}
}

// The ban list must answer exactly what the pairs say: F is 0 on every
// banned node and 1 elsewhere, FPanel agrees with F cell by cell on
// every run shape the tile engines produce (and on whole-row runs), and
// Init is 0 exactly on the banned leaves.
func TestForbiddenSplitsBanListMatchesPairs(t *testing.T) {
	for _, tc := range banCases() {
		t.Run(tc.name, func(t *testing.T) {
			in := problems.ForbiddenSplits(tc.n, tc.pairs)
			set := make(map[[2]int]bool, len(tc.pairs))
			for _, p := range tc.pairs {
				set[p] = true
			}
			for i := 0; i < tc.n; i++ {
				want := cost.Cost(1)
				if set[[2]int{i, i + 1}] {
					want = 0
				}
				if got := in.Init(i); got != want {
					t.Fatalf("Init(%d) = %d, want %d", i, got, want)
				}
				for j := i + 2; j <= tc.n; j++ {
					want := cost.Cost(1)
					if set[[2]int{i, j}] {
						want = 0
					}
					if got := in.F(i, j-1, j); got != want {
						t.Fatalf("F(%d,%d,%d) = %d, want %d", i, j-1, j, got, want)
					}
				}
			}
			dst := make([]cost.Cost, tc.n+1)
			check := func(i, k, j0, m int) {
				in.FPanel(i, k, j0, dst[:m])
				for x := 0; x < m; x++ {
					if got, want := dst[x], in.F(i, k, j0+x); got != want {
						t.Fatalf("FPanel(%d,%d,%d)[%d] = %d, F(%d,%d,%d) = %d",
							i, k, j0, x, got, i, k, j0+x, want)
					}
				}
			}
			for _, b := range []int{1, 7, 64} {
				runShapes(tc.n, b, check)
			}
			for i := 0; i+2 <= tc.n; i++ {
				check(i, i+1, i+2, tc.n-i-1)
			}
		})
	}
}

// The tile engines' workers call one instance's FPanel and F
// concurrently; the ban list is read-only after construction. Run under
// -race.
func TestForbiddenSplitsConcurrentRuns(t *testing.T) {
	const n = 200
	in := problems.ForbiddenSplits(n, workload.FeasibilitySpans(n, 1))
	want := make([]cost.Cost, n+1)
	for j := 2; j <= n; j++ {
		want[j] = in.F(0, 1, j)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]cost.Cost, n+1)
			for rep := 0; rep < 50; rep++ {
				j0 := 2 + (w+rep)%(n-1)
				m := n + 1 - j0
				in.FPanel(0, 1, j0, dst[:m])
				for x := 0; x < m; x++ {
					if dst[x] != want[j0+x] || in.F(0, 1+x%(j0-1), j0+x) != want[j0+x] {
						errs <- fmt.Sprintf("worker %d: run at j0=%d disagrees at j=%d", w, j0, j0+x)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkFPanel times one F run per op over the phase-A run shapes of
// an n=512 instance of each shipped interval family (every 7th split of
// each interior block), and reports the cost per candidate next to the
// kernel's own ns/candidate. Tile edge 64 is what blocked-pipe picks at
// n=512 on two cores.
func BenchmarkFPanel(b *testing.B) {
	const n, tile = 512, 64
	dims := make([]int, n+1)
	weights := make([]int64, n+1)
	for t := range dims {
		dims[t] = 1 + (t*37)%100
		weights[t] = int64(dims[t])
	}
	families := []struct {
		name string
		in   *recurrence.Instance
	}{
		{"matrixchain", problems.RandomMatrixChain(n, 100, 1)},
		{"worstchain", problems.WorstCaseMatrixChain(dims)},
		{"wtriangulation", problems.WeightedTriangulation(weights)},
		{"triangulation", problems.Triangulation(problems.RandomConvexPolygon(n, 1000, 1))},
		{"obst", problems.RandomOBST(n-1, 50, 1)},
		{"convex", problems.RandomConvex(n, 9, 1)},
		{"boolsplit", problems.ForbiddenSplits(n, workload.FeasibilitySpans(n, 0))},
	}
	type run struct{ i, k, j0, m int }
	var runs []run
	for i := 0; i < n; i++ {
		for lo := (i/tile + 2) * tile; lo <= n; lo += tile {
			for k := (i/tile + 1) * tile; k < lo; k += 7 {
				runs = append(runs, run{i, k, lo, min(lo+tile, n+1) - lo})
			}
		}
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			dst := make([]cost.Cost, tile)
			var cells int64
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				r := runs[op%len(runs)]
				f.in.FPanel(r.i, r.k, r.j0, dst[:r.m])
				cells += int64(r.m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/candidate")
		})
	}
}
