package sublineardp_test

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"

	"sublineardp"
	"sublineardp/internal/blocked"
	"sublineardp/internal/btree"
	"sublineardp/internal/core"
	"sublineardp/internal/llp"
	"sublineardp/internal/pebble"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
)

// Native fuzz targets. `go test` runs the seeded corpus as regular tests;
// `go test -fuzz FuzzX` explores further.

// FuzzSolversAgree cross-checks the parallel solvers against the
// sequential DP on arbitrary seeded instances.
func FuzzSolversAgree(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20))
	f.Add(int64(42), uint8(9), uint8(1))
	f.Add(int64(-7), uint8(12), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, nn, maxW uint8) {
		n := int(nn)%12 + 1
		in := problems.RandomInstance(n, int(maxW)+1, seed)
		want := seq.Solve(in).Table
		if rep := verify.Table(in, want); !rep.OK() {
			t.Fatalf("sequential table failed verification: %v", rep.Err())
		}
		for _, opts := range []core.Options{
			{Variant: core.Dense},
			{Variant: core.Banded},
			{Variant: core.Banded, Window: true},
			{Variant: core.Banded, Termination: core.WStable},
		} {
			got := core.Solve(in, opts)
			if !got.Table.Equal(want) {
				t.Fatalf("options %+v disagree on n=%d seed=%d: %v",
					opts, n, seed, got.Table.Diff(want, 3))
			}
		}
	})
}

// FuzzBandedMatchesDense drives the banded storage against the dense
// reference across band radii clustered at the interesting edges: the
// paper's default D = 2*ceil(sqrt n), D just above and below it (the
// band-edge deficits (j-i)-(q-p) ~ D where cells fall out of storage),
// and tiny D where almost everything routes through the direct-combine
// completion described in internal/core/doc.go. Shaped instances
// (selector odd) make the optimal tree a deep spine, the case whose
// activate edges exceed any o(n) band and so exercise that completion
// hardest; the seeds pin both regimes. The final tables must agree at
// every radius — a narrower band may converge slower, never wrong — and
// partial-iteration tables must keep banded a pointwise upper bound of
// dense.
func FuzzBandedMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(0), false)  // default D (n=11)
	f.Add(int64(2), uint8(14), uint8(8), false) // n=16, D = 2*ceil(sqrt 16): the exact edge
	f.Add(int64(3), uint8(14), uint8(7), false) // n=16, one below the edge
	f.Add(int64(4), uint8(14), uint8(9), false) // n=16, one above the edge
	f.Add(int64(5), uint8(12), uint8(1), true)  // n=14 spine through direct combine
	f.Add(int64(6), uint8(10), uint8(2), true)  // narrow band on a shaped instance (n=12)
	f.Add(int64(7), uint8(8), uint8(13), false) // band wider than the instance (n=10, D=13)
	f.Fuzz(func(t *testing.T, seed int64, nn, radius uint8, shaped bool) {
		n := int(nn)%16 + 2
		var in *sublineardp.Instance
		if shaped {
			in = problems.Shaped(btree.RandomSplit(n, newSeededRand(seed)))
		} else {
			in = problems.RandomInstance(n, 60, seed)
		}
		in = in.Materialize()
		d := int(radius) % (n + 4) // sweep past D = 2*ceil(sqrt n) <= n+2
		want := core.Solve(in, core.Options{Variant: core.Dense})
		if rep := verify.Table(in, want.Table); !rep.OK() {
			t.Fatalf("dense table failed verification: %v", rep.Err())
		}
		budget := 3 * core.DefaultIterations(n) // narrow bands converge slower
		got := core.Solve(in, core.Options{Variant: core.Banded, BandRadius: d, MaxIterations: budget})
		if !got.Table.Equal(want.Table) {
			t.Fatalf("banded D=%d disagrees with dense on n=%d seed=%d shaped=%v: %v",
				d, n, seed, shaped, got.Table.Diff(want.Table, 3))
		}
		// Mid-flight the banded table must never undershoot the dense one.
		half := core.DefaultIterations(n) / 2
		if half >= 1 {
			dHalf := core.Solve(in, core.Options{Variant: core.Dense, MaxIterations: half})
			bHalf := core.Solve(in, core.Options{Variant: core.Banded, BandRadius: d, MaxIterations: half})
			if err := verify.UpperBoundedBy(bHalf.Table, dHalf.Table); err != nil {
				t.Fatalf("banded D=%d undershoots dense at iteration %d (n=%d seed=%d): %v",
					d, half, n, seed, err)
			}
		}
	})
}

// FuzzBlockedMatchesSequential drives the blocked engine against the
// sequential DP across tile-boundary shapes: block edges with
// n mod B in {0, 1, B-1} (the partial-tile and off-by-one regimes where
// the block-wavefront index arithmetic can go wrong), B = 1 (every
// index its own block), B > n (a single in-tile closure), and shaped
// spine instances whose optimal tree crosses every tile boundary. The
// tables must match the sequential solver *bitwise* — not just on the
// optimum — under the declared algebra, and pass the solver-independent
// fixed-point verifier.
func FuzzBlockedMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), false) // n%B == 0
	f.Add(int64(2), uint8(17), uint8(4), false) // n%B == 1
	f.Add(int64(3), uint8(15), uint8(4), false) // n%B == B-1
	f.Add(int64(4), uint8(12), uint8(1), false) // one index per block
	f.Add(int64(5), uint8(9), uint8(14), false) // single tile (B > n)
	f.Add(int64(6), uint8(24), uint8(5), true)  // spine across tile boundaries
	f.Add(int64(7), uint8(26), uint8(0), false) // default tile heuristic
	f.Fuzz(func(t *testing.T, seed int64, nn, tile uint8, shaped bool) {
		n := int(nn)%28 + 2
		b := int(tile) % (n + 3) // sweep past B = n+1, 0 = default
		var in *sublineardp.Instance
		if shaped {
			in = problems.Shaped(btree.RandomSplit(n, newSeededRand(seed)))
		} else {
			in = problems.RandomInstance(n, 60, seed)
		}
		want := seq.Solve(in)
		got := blocked.Solve(in, blocked.Options{TileSize: b})
		wd, gd := want.Table.Data(), got.Table.Data()
		for c := range wd {
			if wd[c] != gd[c] {
				t.Fatalf("blocked B=%d diverges from sequential bitwise on n=%d seed=%d shaped=%v: %v",
					b, n, seed, shaped, got.Table.Diff(want.Table, 3))
			}
		}
		if rep := verify.Table(in, got.Table); !rep.OK() {
			t.Fatalf("blocked B=%d table not a fixed point (n=%d seed=%d): %v", b, n, seed, rep.Err())
		}
	})
}

// FuzzRecordedSplitsTree pins the blocked engine's recorded splits
// against the sequential engine's: the trees reconstructed from the two
// recordings must be identical — same smallest-k tie-break — across
// tile-boundary shapes, with the shaped spine instances forcing optimal
// trees that cross every tile boundary. Random min-plus instances are
// always feasible, so a tree always exists.
func FuzzRecordedSplitsTree(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), false) // n%B == 0
	f.Add(int64(2), uint8(17), uint8(4), false) // n%B == 1
	f.Add(int64(3), uint8(12), uint8(1), false) // one index per block
	f.Add(int64(4), uint8(9), uint8(14), false) // single tile (B > n)
	f.Add(int64(5), uint8(24), uint8(5), true)  // spine across tile boundaries
	f.Fuzz(func(t *testing.T, seed int64, nn, tile uint8, shaped bool) {
		n := int(nn)%28 + 2
		b := int(tile) % (n + 3)
		var in *sublineardp.Instance
		if shaped {
			in = problems.Shaped(btree.RandomSplit(n, newSeededRand(seed)))
		} else {
			in = problems.RandomInstance(n, 60, seed)
		}
		want := seq.Solve(in).Tree()
		sol, err := sublineardp.MustNewSolver(sublineardp.EngineBlocked,
			sublineardp.WithSplits(true), sublineardp.WithTileSize(b)).
			Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sol.Tree()
		if err != nil {
			t.Fatalf("recorded-splits tree (n=%d B=%d seed=%d shaped=%v): %v", n, b, seed, shaped, err)
		}
		if !got.Equal(want) {
			t.Fatalf("recorded-splits tree diverges from sequential on n=%d B=%d seed=%d shaped=%v",
				n, b, seed, shaped)
		}
	})
}

// FuzzKnuthYaoMatchesBlocked is the fuzz wall behind the O(n^2) claim:
// on random declared-convex instances (OBST weights and density-built
// RandomConvex vectors) across the same tile-boundary shapes as
// FuzzBlockedMatchesSequential, the pruned engine must be *bitwise*
// identical to the unpruned sequential DP — value table AND split
// matrix — while charging exactly seq.SolveKnuth's pruned candidate
// count. Shaped spine instances do not declare convexity and must take
// the rejection path, at both the internal and the registry boundary.
func FuzzKnuthYaoMatchesBlocked(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), uint8(0), false) // n%B == 0, obst
	f.Add(int64(2), uint8(17), uint8(4), uint8(1), false) // n%B == 1, convex-rand
	f.Add(int64(3), uint8(15), uint8(4), uint8(0), false) // n%B == B-1
	f.Add(int64(4), uint8(12), uint8(1), uint8(1), false) // one index per block
	f.Add(int64(5), uint8(9), uint8(14), uint8(0), false) // single tile (B > n)
	f.Add(int64(6), uint8(24), uint8(7), uint8(1), false) // odd tile edge
	f.Add(int64(7), uint8(26), uint8(0), uint8(0), false) // default tile heuristic
	f.Add(int64(8), uint8(20), uint8(5), uint8(0), true)  // shaped spine: rejection path
	f.Fuzz(func(t *testing.T, seed int64, nn, tile, family uint8, shaped bool) {
		n := int(nn)%28 + 2
		b := int(tile) % (n + 3) // sweep past B = n+1, 0 = default
		ctx := context.Background()
		if shaped {
			// Shaped spines satisfy no quadrangle inequality and declare
			// none: pruning must refuse, never silently fall back.
			in := problems.Shaped(btree.RandomSplit(n, newSeededRand(seed)))
			if _, err := blocked.SolveKYCtx(ctx, in, blocked.Options{TileSize: b}); !errors.Is(err, blocked.ErrNotConvex) {
				t.Fatalf("shaped spine n=%d seed=%d: err = %v, want ErrNotConvex", n, seed, err)
			}
			_, err := sublineardp.MustNewSolver(sublineardp.EngineBlockedKY,
				sublineardp.WithTileSize(b)).Solve(ctx, in)
			if !errors.Is(err, sublineardp.ErrConvexityRequired) {
				t.Fatalf("shaped spine via registry n=%d seed=%d: err = %v, want ErrConvexityRequired", n, seed, err)
			}
			return
		}
		var in *sublineardp.Instance
		if family%2 == 0 {
			in = problems.RandomOBST(n, 60, seed) // n keys -> in.N = n+1 objects
		} else {
			in = problems.RandomConvex(n, 20, seed)
		}
		n = in.N
		want := seq.Solve(in)
		knuth := seq.SolveKnuth(in)
		got := blocked.SolveKY(in, blocked.Options{TileSize: b})
		wd, gd := want.Table.Data(), got.Table.Data()
		for c := range wd {
			if wd[c] != gd[c] {
				t.Fatalf("pruned B=%d diverges from sequential bitwise on %s B=%d seed=%d: %v",
					b, in.Name, b, seed, got.Table.Diff(want.Table, 3))
			}
		}
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if g, e := got.Split(i, j), want.Split(i, j); g != e {
					t.Fatalf("pruned split(%d,%d) = %d, sequential recorded %d (%s B=%d seed=%d)",
						i, j, g, e, in.Name, b, seed)
				}
				if g, e := got.Table.At(i, j), knuth.Table.At(i, j); g != e {
					t.Fatalf("pruned value(%d,%d) = %d, seq.SolveKnuth %d (%s B=%d seed=%d)",
						i, j, g, e, in.Name, b, seed)
				}
			}
		}
		if work := got.Acct.Work - int64(n); work != knuth.Work {
			t.Fatalf("pruned work %d != seq.SolveKnuth %d (%s B=%d seed=%d)", work, knuth.Work, in.Name, b, seed)
		}
		if rep := verify.Table(in, got.Table); !rep.OK() {
			t.Fatalf("pruned table not a fixed point (%s B=%d seed=%d): %v", in.Name, b, seed, rep.Err())
		}
	})
}

// FuzzLLPMatchesSequentialChain drives the asynchronous LLP chain
// engine against the sequential prefix scan across chain lengths,
// candidate windows, worker counts, all three shipped chain families
// and the neutral random family — and, for every one of them, across
// every registered semiring via WithSemiring. The vectors must match
// the sequential solver *bitwise* (the finite-F discipline of
// recurrence.Chain makes that exact under any algebra), the LLP work
// count must equal the sequential candidate count (work efficiency),
// and the vector must pass the solver-independent verify.Chain fixed
// point check. wis and subset sum also run under windows {0, 1, 3, 7} and
// declare a Support, so under their declared algebra both engines fold
// only that: there the LLP vector must also equal the dense
// seq.SolveChain bitwise, at a work count of NumCandidates.
func FuzzLLPMatchesSequentialChain(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(0), uint8(2))  // small segls
	f.Add(int64(2), uint8(20), uint8(0), uint8(1), uint8(4)) // wis, more workers than cores
	f.Add(int64(3), uint8(30), uint8(0), uint8(2), uint8(1)) // subset sum, single worker
	f.Add(int64(4), uint8(47), uint8(3), uint8(3), uint8(3)) // windowed random chain
	f.Add(int64(5), uint8(1), uint8(1), uint8(3), uint8(9))  // n=1 edge, workers > n
	f.Add(int64(6), uint8(33), uint8(0), uint8(3), uint8(5)) // full-prefix random chain
	f.Fuzz(func(t *testing.T, seed int64, nn, window, family, ww uint8) {
		n := int(nn)%48 + 1
		workers := int(ww)%9 + 1
		var c *sublineardp.Chain
		switch family % 4 {
		case 0:
			xs, ys := problems.RandomSeries(n, seed)
			c = problems.SegmentedLeastSquares(xs, ys, int64(window)*100)
		case 1:
			s, e, w := problems.RandomJobs(n, seed)
			c = problems.IntervalScheduling(s, e, w)
			c.Window = []int{0, 1, 3, 7}[window%4]
		case 2:
			c = problems.SubsetSum(int64(n), []int64{2, 5, int64(n)%7 + 1})
			c.Window = []int{c.Window, 0, 1, 3, 7}[window%5] // the constructor's window, or an override
		default:
			c = problems.RandomChain(n, 50, int(window)%(n+1), seed)
		}
		if c.Support != nil {
			dense := seq.SolveChain(c)
			got, err := llp.SolveCtx(context.Background(), c, llp.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			dd, gd := dense.Values.Data(), got.Values.Data()
			for j := range dd {
				if dd[j] != gd[j] {
					t.Fatalf("support fold of %s window=%d workers=%d diverges from the dense scan: c(%d) = %d vs %d",
						c.Name, c.Window, workers, j, gd[j], dd[j])
				}
			}
			if got.Work != c.NumCandidates() {
				t.Fatalf("support fold of %s: work %d, support count %d", c.Name, got.Work, c.NumCandidates())
			}
		}
		for _, algName := range sublineardp.Semirings() {
			sr, ok := sublineardp.LookupSemiring(algName)
			if !ok {
				t.Fatalf("registered semiring %q not resolvable", algName)
			}
			want, err := seq.SolveChainSemiringCtx(context.Background(), c, sr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := llp.SolveCtx(context.Background(), c, llp.Options{Workers: workers, Semiring: sr})
			if err != nil {
				t.Fatal(err)
			}
			wd, gd := want.Values.Data(), got.Values.Data()
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("llp diverges bitwise from sequential on %s alg=%s workers=%d: c(%d) = %d vs %d",
						c.Name, algName, workers, j, gd[j], wd[j])
				}
			}
			if got.Work != want.Work {
				t.Fatalf("llp work %d != sequential %d on %s alg=%s workers=%d — not work-efficient",
					got.Work, want.Work, c.Name, algName, workers)
			}
			if rep := verify.Chain(sr, c, got.Values); !rep.OK() {
				t.Fatalf("llp vector not a fixed point on %s alg=%s: %v", c.Name, algName, rep.Err())
			}
		}
	})
}

// FuzzPebbleBound checks Lemma 3.3 on arbitrary random trees.
func FuzzPebbleBound(f *testing.F) {
	f.Add(int64(1), uint16(64))
	f.Add(int64(2), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, nn uint16) {
		n := int(nn)%800 + 2
		tree := btree.RandomSplit(n, newSeededRand(seed))
		g := pebble.NewGame(tree, pebble.HLVRule)
		moves := g.Run(pebble.LemmaBound(n))
		if !g.RootPebbled() {
			t.Fatalf("n=%d seed=%d: root unpebbled after %d moves (bound %d)",
				n, seed, moves, pebble.LemmaBound(n))
		}
	})
}

// FuzzTreeEncoding round-trips arbitrary random trees through the
// serialisation format.
func FuzzTreeEncoding(f *testing.F) {
	f.Add(int64(3), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, nn uint8) {
		n := int(nn)%60 + 2
		tree := btree.RandomSplit(n, newSeededRand(seed))
		got, err := btree.Parse(tree.Encode())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !got.Equal(tree) {
			t.Fatalf("round trip changed the tree %s", tree.Encode())
		}
	})
}

// FuzzParseNeverPanics feeds arbitrary strings to the tree parser; it may
// reject them but must not panic.
func FuzzParseNeverPanics(f *testing.F) {
	f.Add("(1 . .)")
	f.Add("((((")
	f.Add("(999999999999999999999 . .)")
	f.Add(".(")
	f.Fuzz(func(t *testing.T, s string) {
		tree, err := btree.Parse(s)
		if err == nil {
			if vErr := tree.Validate(); vErr != nil {
				t.Fatalf("Parse(%q) returned an invalid tree: %v", s, vErr)
			}
		}
	})
}

func newSeededRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// FuzzPipelinedMatchesBlocked pins the dependency-counter schedule — the
// one parallel schedule of the blocked engines — to the sequential DP:
// on arbitrary seeded instances and tile sizes — boundary-aligned,
// off-by-one, single-tile, one index per block — the pipelined engine's
// value table AND recorded splits must be bitwise identical to seq's.
// The counter graph admits every topological order of the tile DAG;
// this wall is what forces all of them to compute the same candidate
// sequences.
func FuzzPipelinedMatchesBlocked(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), false) // n%B == 0
	f.Add(int64(2), uint8(17), uint8(4), false) // n%B == 1
	f.Add(int64(3), uint8(15), uint8(4), false) // n%B == B-1
	f.Add(int64(4), uint8(12), uint8(1), false) // one index per block
	f.Add(int64(5), uint8(9), uint8(14), false) // single tile (B > n)
	f.Add(int64(6), uint8(24), uint8(5), true)  // spine across tile boundaries
	f.Add(int64(7), uint8(26), uint8(0), false) // default tile heuristic
	f.Fuzz(func(t *testing.T, seed int64, nn, tile uint8, shaped bool) {
		n := int(nn)%28 + 2
		b := int(tile) % (n + 3) // sweep past B = n+1, 0 = default
		var in *sublineardp.Instance
		if shaped {
			in = problems.Shaped(btree.RandomSplit(n, newSeededRand(seed)))
		} else {
			in = problems.RandomInstance(n, 60, seed)
		}
		want := seq.Solve(in)
		got := blocked.SolvePipe(in, blocked.Options{TileSize: b, RecordSplits: true})
		wd, gd := want.Table.Data(), got.Table.Data()
		for c := range wd {
			if wd[c] != gd[c] {
				t.Fatalf("pipelined B=%d diverges from sequential bitwise on n=%d seed=%d shaped=%v: %v",
					b, n, seed, shaped, got.Table.Diff(want.Table, 3))
			}
		}
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if g, e := got.Split(i, j), want.Split(i, j); g != e {
					t.Fatalf("pipelined B=%d split(%d,%d) = %d, sequential %d (n=%d seed=%d shaped=%v)",
						b, i, j, g, e, n, seed, shaped)
				}
			}
		}
		if rep := verify.Table(in, got.Table); !rep.OK() {
			t.Fatalf("pipelined B=%d table not a fixed point (n=%d seed=%d): %v", b, n, seed, rep.Err())
		}
	})
}

// FuzzTiledChainMatchesSequential holds the tiled chain engine to the
// sequential scan under every registered algebra, over tile edges from
// one index per block past one block for the whole chain (0 = auto) and
// 1–4 workers: values and predecessors bitwise, Path equal, and Work the
// dense candidate count. The engine folds every window, so the shipped
// supports are stripped; wis, subset sum and the random chain also run
// windowed, and one family drops FRow for the per-candidate F path.
func FuzzTiledChainMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0), uint8(7), uint8(1))   // segls, B=7
	f.Add(int64(2), uint8(64), uint8(3), uint8(1), uint8(1), uint8(3))   // windowed wis, one index per block
	f.Add(int64(3), uint8(50), uint8(1), uint8(2), uint8(0), uint8(1))   // subset sum, its own window, auto B
	f.Add(int64(4), uint8(77), uint8(9), uint8(3), uint8(16), uint8(2))  // windowed random chain
	f.Add(int64(5), uint8(30), uint8(0), uint8(4), uint8(6), uint8(0))   // segls without FRow
	f.Add(int64(6), uint8(0), uint8(0), uint8(3), uint8(2), uint8(3))    // n=1
	f.Add(int64(7), uint8(20), uint8(2), uint8(3), uint8(200), uint8(2)) // one block
	f.Fuzz(func(t *testing.T, seed int64, nn, window, family, tile, ww uint8) {
		n := int(nn)%80 + 1
		b := int(tile) % (n + 3)
		workers := int(ww)%4 + 1
		var c *sublineardp.Chain
		switch family % 5 {
		case 0:
			xs, ys := problems.RandomSeries(n, seed)
			c = problems.SegmentedLeastSquares(xs, ys, int64(window)*100)
		case 1:
			s, e, w := problems.RandomJobs(n, seed)
			c = problems.IntervalScheduling(s, e, w)
			c.Window = []int{0, 1, 3, 7}[window%4]
		case 2:
			c = problems.SubsetSum(int64(n), []int64{2, 5, int64(n)%7 + 1})
			c.Window = []int{c.Window, 0, 1, 3, 7}[window%5]
		case 3:
			c = problems.RandomChain(n, 50, int(window)%(n+1), seed)
		default:
			xs, ys := problems.RandomSeries(n, seed)
			c = problems.SegmentedLeastSquares(xs, ys, int64(window)*100)
			c.FRow = nil
		}
		c.Support = nil
		for _, algName := range sublineardp.Semirings() {
			sr, ok := sublineardp.LookupSemiring(algName)
			if !ok {
				t.Fatalf("registered semiring %q not resolvable", algName)
			}
			label := fmt.Sprintf("%s window=%d alg=%s B=%d workers=%d", c.Name, c.Window, algName, b, workers)
			want, err := seq.SolveChainSemiringCtx(context.Background(), c, sr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := blocked.SolveChainCtx(context.Background(), c, blocked.Options{Workers: workers, TileSize: b, Semiring: sr})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Values.Equal(want.Values) {
				t.Fatalf("%s: vector diverges from the sequential scan: %v", label, got.Values.Diff(want.Values, 3))
			}
			if !slices.Equal(got.Preds, want.Preds()) {
				t.Fatalf("%s: predecessors diverge from the sequential scan", label)
			}
			if got.Work != c.NumCandidates() || got.Work != want.Work {
				t.Fatalf("%s: work %d, candidates %d, sequential %d", label, got.Work, c.NumCandidates(), want.Work)
			}
			if !want.Feasible() {
				continue
			}
			sol, err := sublineardp.MustNewChainSolver(sublineardp.ChainEngineTiled, sublineardp.WithSemiring(sr),
				sublineardp.WithTileSize(b), sublineardp.WithWorkers(workers)).Solve(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			path, err := sol.Path()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if wantPath := want.Path(); !slices.Equal(path, wantPath) {
				t.Fatalf("%s: path %v, sequential %v", label, path, wantPath)
			}
		}
	})
}
