package llp

import (
	"context"
	"math/rand"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
)

// randomChain builds a neutral chain with finite random weights in
// [0, maxW], optionally windowed, meaningful under every registered
// algebra.
func randomChain(n, maxW, window int, seed int64) *recurrence.Chain {
	rng := rand.New(rand.NewSource(seed))
	f := make([]cost.Cost, (n+1)*(n+1))
	for i := range f {
		f[i] = cost.Cost(rng.Intn(maxW + 1))
	}
	return &recurrence.Chain{
		N: n,
		F: func(k, j int) cost.Cost { return f[k*(n+1)+j] },
		FRow: func(j, k0 int, dst []cost.Cost) {
			copy(dst, f[k0*(n+1)+j:])
			for t := 1; t < len(dst); t++ {
				dst[t] = f[(k0+t)*(n+1)+j]
			}
		},
		Window: window,
		Name:   "random",
	}
}

func TestLLPMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 33, 64, 257} {
		for _, window := range []int{0, 1, 5} {
			c := randomChain(n, 40, window, int64(n*100+window))
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, name := range algebra.Names() {
				sr, _ := algebra.Lookup(name)
				want, err := seq.SolveChainSemiringCtx(context.Background(), c, sr)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4, 9} {
					got, err := SolveCtx(context.Background(), c, Options{Workers: workers, Semiring: sr})
					if err != nil {
						t.Fatalf("n=%d window=%d alg=%s workers=%d: %v", n, window, name, workers, err)
					}
					for j := 0; j <= n; j++ {
						if got.Values.At(j) != want.Values.At(j) {
							t.Fatalf("n=%d window=%d alg=%s workers=%d: c(%d) = %d, sequential %d",
								n, window, name, workers, j, got.Values.At(j), want.Values.At(j))
						}
					}
					if got.Work != want.Work {
						t.Fatalf("n=%d window=%d alg=%s workers=%d: work %d, sequential %d",
							n, window, name, workers, got.Work, want.Work)
					}
					if rep := verify.Chain(sr, c, got.Values); !rep.OK() {
						t.Fatalf("n=%d window=%d alg=%s workers=%d: %v", n, window, name, workers, rep.Err())
					}
				}
			}
		}
	}
}

func TestWorkEfficiency(t *testing.T) {
	for _, window := range []int{0, 7} {
		c := randomChain(129, 20, window, 42)
		res := Solve(c, Options{Workers: 4})
		if res.Work != c.NumCandidates() {
			t.Fatalf("window=%d: work %d, candidate count %d", window, res.Work, c.NumCandidates())
		}
		if res.Sweeps < 1 {
			t.Fatalf("window=%d: sweeps %d", window, res.Sweeps)
		}
	}
	// A declared support is the whole work under the declared algebra:
	// wis folds at most two candidates per index, subset sum one per
	// item, against the dense scan's j per index.
	s, e, w := problems.RandomJobs(300, 4)
	for _, tc := range []struct {
		c       *recurrence.Chain
		perStep int64
	}{
		{problems.IntervalScheduling(s, e, w), 2},
		{problems.SubsetSum(300, []int64{3, 7, 11}), 3},
	} {
		for _, workers := range []int{1, 3} {
			res := Solve(tc.c, Options{Workers: workers})
			dense := seq.SolveChain(tc.c)
			if res.Work != tc.c.NumCandidates() || res.Work > tc.perStep*int64(tc.c.N) {
				t.Fatalf("%s workers=%d: work %d, support count %d, at most %d", tc.c.Name, workers,
					res.Work, tc.c.NumCandidates(), tc.perStep*int64(tc.c.N))
			}
			if !res.Values.Equal(dense.Values) {
				t.Fatalf("%s workers=%d: support fold diverges from the dense scan: %v", tc.c.Name, workers,
					res.Values.Diff(dense.Values, 3))
			}
		}
	}
}

func TestSolveCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := randomChain(64, 10, 0, 7)
	if res, err := SolveCtx(ctx, c, Options{Workers: 2}); err == nil || res != nil {
		t.Fatalf("cancelled solve returned res=%v err=%v", res, err)
	}
}

func TestUnresolvableAlgebra(t *testing.T) {
	c := randomChain(4, 5, 0, 1)
	c.Algebra = "no-such-algebra"
	if _, err := SolveCtx(context.Background(), c, Options{}); err == nil {
		t.Fatal("expected an error for an unregistered algebra")
	}
}

func TestExplicitPool(t *testing.T) {
	pool := parutil.NewPool(3)
	defer pool.Close()
	c := randomChain(100, 15, 0, 9)
	want := seq.SolveChain(c)
	got := Solve(c, Options{Pool: pool})
	if !got.Values.Equal(want.Values) {
		t.Fatalf("pool solve diverged: %v", got.Values.Diff(want.Values, 3))
	}
}
