package problems_test

import (
	"fmt"
	"sync"
	"testing"

	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
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

// The ban list must answer exactly what the pairs say: F and FSpan are
// 0 on every banned node and 1 elsewhere, for every split of the node,
// and Init is 0 exactly on the banned leaves.
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
					if got := in.FSpan(i, j); got != want {
						t.Fatalf("FSpan(%d,%d) = %d, want %d", i, j, got, want)
					}
					for k := i + 1; k < j; k++ {
						if got := in.F(i, k, j); got != want {
							t.Fatalf("F(%d,%d,%d) = %d, want %d", i, k, j, got, want)
						}
					}
				}
			}
		})
	}
}

// The tile engines' workers call one instance's FSpan and F
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
			for rep := 0; rep < 50; rep++ {
				j0 := 2 + (w+rep)%(n-1)
				for j := j0; j <= n; j++ {
					if in.FSpan(0, j) != want[j] || in.F(0, 1+(j-j0)%(j0-1), j) != want[j] {
						errs <- fmt.Sprintf("worker %d: run at j0=%d disagrees at j=%d", w, j0, j)
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
