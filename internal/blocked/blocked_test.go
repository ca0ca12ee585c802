package blocked

import (
	"context"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/parutil"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
)

// bitwiseEqual is stricter than Table.Equal: no Norm — the blocked
// engine promises the exact bytes of the sequential table.
func bitwiseEqual(a, b *recurrence.Table) bool {
	if a.N != b.N {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

// The tile-boundary sweep: every residue class of n mod B that matters
// (0, 1, B-1), tiles wider than the instance, degenerate B=1, and odd
// co-prime shapes, bitwise against the sequential DP.
func TestBlockedMatchesSequentialAcrossTileBoundaries(t *testing.T) {
	cases := []struct{ n, tile int }{
		{1, 0}, {2, 0}, {3, 2}, {7, 3},
		{16, 4}, // n+1 % B == 1
		{15, 4}, // n+1 % B == 0
		{14, 4}, // n+1 % B == B-1
		{17, 4}, {23, 5}, {31, 8},
		{24, 1},  // one index per block
		{24, 64}, // single tile (pure in-tile closure)
		{40, 7}, {40, 0},
	}
	for _, tc := range cases {
		in := problems.RandomInstance(tc.n, 90, int64(tc.n*31+tc.tile))
		want := seq.Solve(in)
		got := Solve(in, Options{TileSize: tc.tile})
		if !bitwiseEqual(got.Table, want.Table) {
			t.Errorf("n=%d tile=%d: table differs from sequential: %v",
				tc.n, tc.tile, got.Table.Diff(want.Table, 3))
		}
		if rep := verify.Table(in, got.Table); !rep.OK() {
			t.Errorf("n=%d tile=%d: not a fixed point: %v", tc.n, tc.tile, rep.Err())
		}
		if want := EffectiveTileSize(tc.n, tc.tile, 1); got.TileSize != want { // the serial Solve sizes for one processor
			t.Errorf("n=%d tile=%d: effective tile %d, want %d", tc.n, tc.tile, got.TileSize, want)
		}
	}
}

// Every shipped algebra must come out bitwise equal to the generic
// sequential sweep, including the promoted-interface dispatch path.
func TestBlockedMatchesSequentialAcrossSemirings(t *testing.T) {
	instances := []*recurrence.Instance{
		problems.RandomInstance(21, 70, 3),
		problems.RandomMatrixChain(26, 50, 5),
		problems.Zigzag(19),
	}
	for _, name := range algebra.Names() {
		sr, _ := algebra.Lookup(name)
		for _, in := range instances {
			want, err := seq.SolveSemiringCtx(context.Background(), in, sr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveCtx(context.Background(), in, Options{TileSize: 5, Semiring: sr})
			if err != nil {
				t.Fatal(err)
			}
			if !bitwiseEqual(got.Table, want.Table) {
				t.Errorf("%s/%s: table differs: %v", name, in.Name, got.Table.Diff(want.Table, 3))
			}
		}
	}
}

// The interface (non-stenciled) dispatch path must agree too: force it
// by passing a wrapper the concrete-type switch cannot see.
type wrappedMinPlus struct{ algebra.MinPlus }

func TestBlockedGenericKernelPath(t *testing.T) {
	in := problems.RandomInstance(18, 60, 11)
	want := seq.Solve(in)
	got, err := SolveCtx(context.Background(), in, Options{TileSize: 4, Semiring: wrappedMinPlus{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got.Table, want.Table) {
		t.Errorf("wrapped kernel diverges: %v", got.Table.Diff(want.Table, 3))
	}
}

// Recording split points must be invisible to the value table — the
// recording kernel bodies run the exact same arithmetic, so the bytes
// match a non-recording solve — and must reproduce the sequential
// engine's recorded splits exactly (smallest k achieving the optimum)
// on every registered algebra, across tile boundaries.
func TestBlockedRecordedSplitsMatchSequential(t *testing.T) {
	instances := []*recurrence.Instance{
		problems.RandomInstance(21, 70, 3),
		problems.RandomMatrixChain(26, 50, 5),
		problems.Zigzag(19),
	}
	ctx := context.Background()
	for _, name := range algebra.Names() {
		sr, _ := algebra.Lookup(name)
		for _, in := range instances {
			want, err := seq.SolveSemiringCtx(ctx, in, sr)
			if err != nil {
				t.Fatal(err)
			}
			for _, tile := range []int{1, 4, 7, 64} {
				plain, err := SolveCtx(ctx, in, Options{TileSize: tile, Semiring: sr})
				if err != nil {
					t.Fatal(err)
				}
				if plain.Splits != nil {
					t.Fatalf("%s/%s tile=%d: splits recorded without RecordSplits", name, in.Name, tile)
				}
				rec, err := SolveCtx(ctx, in, Options{TileSize: tile, Semiring: sr, RecordSplits: true})
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(rec.Table, plain.Table) {
					t.Errorf("%s/%s tile=%d: recording changed the value table: %v",
						name, in.Name, tile, rec.Table.Diff(plain.Table, 3))
				}
				for i := 0; i <= in.N; i++ {
					for j := i + 2; j <= in.N; j++ {
						if got, exp := rec.Split(i, j), want.Split(i, j); got != exp {
							t.Errorf("%s/%s tile=%d: split(%d,%d) = %d, sequential recorded %d",
								name, in.Name, tile, i, j, got, exp)
						}
					}
					if i < in.N {
						if got := rec.Split(i, i+1); got != -1 {
							t.Errorf("%s/%s tile=%d: leaf split(%d,%d) = %d, want -1",
								name, in.Name, tile, i, i+1, got)
						}
					}
				}
			}
		}
	}
}

// The interface (non-stenciled) recording path — via the generic
// derived walkers — must agree with the concrete one.
func TestBlockedRecordedSplitsGenericKernelPath(t *testing.T) {
	in := problems.RandomMatrixChain(23, 60, 13)
	want := seq.Solve(in)
	rec, err := SolveCtx(context.Background(), in,
		Options{TileSize: 4, Semiring: wrappedMinPlus{}, RecordSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= in.N; i++ {
		for j := i + 2; j <= in.N; j++ {
			if got, exp := rec.Split(i, j), want.Split(i, j); got != exp {
				t.Errorf("generic split(%d,%d) = %d, sequential recorded %d", i, j, got, exp)
			}
		}
	}
}

func TestBlockedCancellation(t *testing.T) {
	in := problems.RandomInstance(220, 80, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveCtx(ctx, in, Options{TileSize: 16})
	if err == nil || res != nil {
		t.Fatalf("cancelled solve returned (%v, %v), want nil result and ctx error", res, err)
	}
}

func TestBlockedSharedPool(t *testing.T) {
	pool := parutil.NewPool(3)
	defer pool.Close()
	in := problems.RandomMatrixChain(60, 40, 9)
	want := seq.Solve(in)
	got, err := SolveCtx(context.Background(), in, Options{TileSize: 8, Pool: pool, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got.Table, want.Table) {
		t.Errorf("pooled solve diverges: %v", got.Table.Diff(want.Table, 3))
	}
	if got.Acct.Work == 0 || got.Acct.Time == 0 {
		t.Errorf("accounting empty: %+v", got.Acct)
	}
}

// The candidate ledger must be exact: the blocked schedule visits every
// (i,k,j) triple exactly once, so charged work equals the sequential
// candidate count regardless of tile size.
func TestBlockedWorkMatchesSequential(t *testing.T) {
	for _, tile := range []int{1, 3, 8, 64} {
		in := problems.RandomInstance(33, 50, 2)
		want := seq.Solve(in).Work
		got := Solve(in, Options{TileSize: tile})
		// Subtract the leaf-init ChargeUnit(n).
		if gotWork := got.Acct.Work - int64(in.N); gotWork != want {
			t.Errorf("tile=%d: charged work %d, sequential %d", tile, gotWork, want)
		}
	}
}
