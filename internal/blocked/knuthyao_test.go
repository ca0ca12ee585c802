package blocked

import (
	"context"
	"errors"
	"testing"

	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
)

// kyInstances are the declared-convex families the pruned engine is
// gated against: OBST (quadrangle inequality with equality-heavy ties)
// and the density-built RandomConvex (strict-slack windows).
func kyInstances(n int, seed int64) []*recurrence.Instance {
	return []*recurrence.Instance{
		problems.RandomOBST(n, 40, seed),
		problems.RandomConvex(n, 25, seed),
	}
}

// The pruned engine must be bitwise identical — value table AND split
// matrix — to the sequential references, across the tile-boundary
// sweep, and its charged work must equal seq.SolveKnuth's pruned
// candidate count exactly.
func TestKnuthYaoBitwiseAcrossTileBoundaries(t *testing.T) {
	cases := []struct{ n, tile int }{
		{1, 0}, {2, 0}, {3, 2}, {7, 3},
		{16, 4}, {15, 4}, {14, 4},
		{24, 1}, {24, 64},
		{40, 7}, {40, 0}, {65, 16},
	}
	for _, tc := range cases {
		for _, in := range kyInstances(tc.n, int64(tc.n*31+tc.tile)) {
			want := seq.Solve(in)
			knuth := seq.SolveKnuth(in)
			got := SolveKY(in, Options{TileSize: tc.tile})
			if !bitwiseEqual(got.Table, want.Table) {
				t.Errorf("%s tile=%d: pruned table differs from sequential: %v",
					in.Name, tc.tile, got.Table.Diff(want.Table, 3))
			}
			for i := 0; i <= in.N; i++ {
				for j := i + 1; j <= in.N; j++ {
					if g, e := got.Split(i, j), want.Split(i, j); g != e {
						t.Errorf("%s tile=%d: split(%d,%d) = %d, sequential recorded %d",
							in.Name, tc.tile, i, j, g, e)
					}
				}
			}
			if gotWork := got.Acct.Work - int64(in.N); gotWork != knuth.Work {
				t.Errorf("%s tile=%d: charged work %d, seq.SolveKnuth %d",
					in.Name, tc.tile, gotWork, knuth.Work)
			}
			if rep := verify.Table(in, got.Table); !rep.OK() {
				t.Errorf("%s tile=%d: not a fixed point: %v", in.Name, tc.tile, rep.Err())
			}
		}
	}
}

// The generic (non-stenciled) kernel path must prune identically.
func TestKnuthYaoGenericKernelPath(t *testing.T) {
	in := problems.RandomConvex(23, 30, 13)
	want := seq.Solve(in)
	got, err := SolveKYCtx(context.Background(), in, Options{TileSize: 4, Semiring: wrappedMinPlus{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got.Table, want.Table) {
		t.Errorf("wrapped pruned kernel diverges: %v", got.Table.Diff(want.Table, 3))
	}
	for i := 0; i <= in.N; i++ {
		for j := i + 2; j <= in.N; j++ {
			if g, e := got.Split(i, j), want.Split(i, j); g != e {
				t.Errorf("generic split(%d,%d) = %d, want %d", i, j, g, e)
			}
		}
	}
}

// Ineligible instances must error with ErrNotConvex, never silently
// fall back or mis-prune: undeclared instances, and declared ones
// resolving to a non-min-plus algebra via override.
func TestKnuthYaoRejectsIneligible(t *testing.T) {
	ctx := context.Background()
	undeclared := problems.RandomMatrixChain(12, 40, 3)
	if _, err := SolveKYCtx(ctx, undeclared, Options{}); !errors.Is(err, ErrNotConvex) {
		t.Errorf("undeclared instance: err = %v, want ErrNotConvex", err)
	}
	maxPlus := problems.WorstCaseMatrixChain([]int{4, 3, 5, 2, 6})
	if _, err := SolveKYCtx(ctx, maxPlus, Options{}); !errors.Is(err, ErrNotConvex) {
		t.Errorf("max-plus instance: err = %v, want ErrNotConvex", err)
	}
	boolPlan := problems.ForbiddenSplits(10, [][2]int{{2, 5}})
	if _, err := SolveKYCtx(ctx, boolPlan, Options{}); !errors.Is(err, ErrNotConvex) {
		t.Errorf("bool-plan instance: err = %v, want ErrNotConvex", err)
	}
}

// The pruned engine must honour pools, explicit workers, and
// cancellation like the unpruned one.
func TestKnuthYaoCancellation(t *testing.T) {
	in := problems.RandomOBST(219, 80, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveKYCtx(ctx, in, Options{TileSize: 16})
	if err == nil || res != nil {
		t.Fatalf("cancelled pruned solve returned (%v, %v), want nil result and ctx error", res, err)
	}
}

// Work must stay inside the Knuth envelope: the telescoping windows
// cost at most ~2 candidates per cell, so total work is well under
// 4·n^2 (asserted here at test scale; BenchmarkE17KnuthYao asserts it
// at n up to 4096).
func TestKnuthYaoWorkEnvelope(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		in := problems.RandomOBST(n-1, 50, int64(n))
		res := SolveKY(in, Options{})
		work := res.Acct.Work - int64(in.N)
		if limit := int64(4 * in.N * in.N); work > limit {
			t.Errorf("n=%d: pruned work %d exceeds 4n^2 = %d", in.N, work, limit)
		}
	}
}
