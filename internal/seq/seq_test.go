package seq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sublineardp/internal/algebra"
	"sublineardp/internal/btree"
	"sublineardp/internal/core"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
)

func TestCLRSGolden(t *testing.T) {
	res := Solve(problems.CLRSMatrixChain())
	if res.Cost() != problems.CLRSOptimalCost {
		t.Fatalf("CLRS optimum = %d, want %d", res.Cost(), problems.CLRSOptimalCost)
	}
	// The published optimal parenthesization is (A1(A2A3))((A4A5)A6):
	// root split at 3, left subtree splits (0,3) at 1, right (3,6) at 5.
	if res.Split(0, 6) != 3 || res.Split(0, 3) != 1 || res.Split(3, 6) != 5 {
		t.Errorf("splits = %d,%d,%d; want 3,1,5",
			res.Split(0, 6), res.Split(0, 3), res.Split(3, 6))
	}
}

func TestTinyInstancesByHand(t *testing.T) {
	// Two matrices: single product, cost dims product.
	res := Solve(problems.MatrixChain([]int{2, 3, 4}))
	if res.Cost() != 2*3*4 {
		t.Fatalf("n=2 cost = %d, want 24", res.Cost())
	}
	// Three matrices 10x100, 100x5, 5x50 (CLRS warm-up): optimum 7500 via (A1A2)A3.
	res = Solve(problems.MatrixChain([]int{10, 100, 5, 50}))
	if res.Cost() != 7500 {
		t.Fatalf("warm-up cost = %d, want 7500", res.Cost())
	}
	if res.Split(0, 3) != 2 {
		t.Fatalf("warm-up split = %d, want 2", res.Split(0, 3))
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
			in := problems.RandomInstance(n, 40, seed)
			got := Solve(in).Cost()
			want := BruteForce(in)
			if got != want {
				t.Fatalf("n=%d seed=%d: Solve=%d BruteForce=%d", n, seed, got, want)
			}
		}
	}
}

// Both the sequential scan and the paper's dense HLV iteration agree
// with the exhaustive recursion under every shipped algebra, including
// infeasible bool-plan roots and max-plus optima.
func TestEnginesMatchBruteForceAcrossAlgebras(t *testing.T) {
	for _, alg := range []string{algebra.NameMinPlus, algebra.NameMaxPlus, algebra.NameBoolPlan} {
		for seed := int64(1); seed <= 4; seed++ {
			for n := 1; n <= 10; n++ {
				in := problems.RandomAlgebraInstance(alg, n, 39, seed)
				want := BruteForce(in)
				if got := Solve(in).Cost(); got != want {
					t.Errorf("%s: sequential %d, brute force %d", in.Name, got, want)
				}
				if got := core.Solve(in, core.Options{Variant: core.Dense}).Cost(); got != want {
					t.Errorf("%s: hlv-dense %d, brute force %d", in.Name, got, want)
				}
			}
		}
	}
}

func TestSolveOnAllProblemFamilies(t *testing.T) {
	// Cross-family check: weighted triangulation with matrix dims equals
	// matrix-chain optimum (the classic isomorphism).
	w := []int64{30, 35, 15, 5, 10, 20, 25}
	tri := Solve(problems.WeightedTriangulation(w))
	mc := Solve(problems.CLRSMatrixChain())
	if tri.Cost() != mc.Cost() {
		t.Fatalf("triangulation %d != matrix chain %d", tri.Cost(), mc.Cost())
	}
	// And every family solves to a finite optimum matching brute force at
	// small sizes.
	for seed := int64(1); seed <= 4; seed++ {
		for _, in := range []*recurrence.Instance{
			problems.RandomMatrixChain(7, 30, seed),
			problems.RandomOBST(6, 20, seed),
			problems.Triangulation(problems.RandomConvexPolygon(7, 400, seed)),
		} {
			got := Solve(in).Cost()
			want := BruteForce(in)
			if got != want {
				t.Fatalf("%s: Solve=%d BruteForce=%d", in.Name, got, want)
			}
		}
	}
}

func TestTreeReconstruction(t *testing.T) {
	in := problems.CLRSMatrixChain()
	res := Solve(in)
	tr := res.Tree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Recompute the tree's cost by summing f over its internal nodes and
	// init over leaves; it must equal the DP optimum.
	var sum cost.Cost
	for v := int32(0); v < int32(tr.Len()); v++ {
		i, j := tr.Span(v)
		if tr.IsLeaf(v) {
			sum = cost.Add(sum, in.Init(i))
		} else {
			sum = cost.Add(sum, in.F(i, tr.Split(v), j))
		}
	}
	if sum != res.Cost() {
		t.Fatalf("reconstructed tree cost %d != optimum %d", sum, res.Cost())
	}
}

func TestShapedInstanceRecoversShape(t *testing.T) {
	shapesFns := map[string]func(int) *btree.Tree{
		"zigzag":   btree.Zigzag,
		"complete": btree.Complete,
		"skewed":   btree.LeftSkewed,
	}
	for name, mk := range shapesFns {
		for _, n := range []int{2, 3, 7, 16, 33} {
			want := mk(n)
			res := Solve(problems.Shaped(want))
			if res.Cost() != 0 {
				t.Fatalf("%s n=%d: shaped optimum = %d, want 0", name, n, res.Cost())
			}
			if !res.Tree().Equal(want) {
				t.Fatalf("%s n=%d: reconstructed tree differs from prescribed shape", name, n)
			}
		}
	}
}

func TestRandomShapedRecoversShape(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 2 + int(seed)*3
		want := btree.RandomSplit(n, rand.New(rand.NewSource(seed)))
		res := Solve(problems.Shaped(want))
		if !res.Tree().Equal(want) {
			t.Fatalf("seed %d: prescribed random shape not recovered", seed)
		}
	}
}

func TestKnuthMatchesSolveOnOBST(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		m := 2 + int(seed%9)
		in := problems.RandomOBST(m, 25, seed)
		a := Solve(in)
		b := SolveKnuth(in)
		if a.Cost() != b.Cost() {
			t.Fatalf("m=%d seed=%d: Knuth=%d DP=%d", m, seed, b.Cost(), a.Cost())
		}
		if b.Work > a.Work {
			t.Errorf("m=%d seed=%d: Knuth did more work (%d) than plain DP (%d)", m, seed, b.Work, a.Work)
		}
	}
}

func TestKnuthWorkIsQuadratic(t *testing.T) {
	// Work(2n)/Work(n) should approach 4 (quadratic), far below 8 (cubic).
	w100 := SolveKnuth(problems.RandomOBST(100, 50, 1)).Work
	w200 := SolveKnuth(problems.RandomOBST(200, 50, 1)).Work
	ratio := float64(w200) / float64(w100)
	if ratio > 6 {
		t.Fatalf("Knuth work ratio %0.2f suggests cubic growth", ratio)
	}
}

func TestSolveWorkCount(t *testing.T) {
	// Exact candidate count: sum over spans s=2..n of (n-s+1)*(s-1).
	n := 17
	res := Solve(problems.RandomInstance(n, 10, 2))
	var want int64
	for s := 2; s <= n; s++ {
		want += int64(n-s+1) * int64(s-1)
	}
	if res.Work != want {
		t.Fatalf("work = %d, want %d", res.Work, want)
	}
}

func TestOBSTGoldenSmall(t *testing.T) {
	// alpha = (1,1), beta = (1): single key, cost = alpha depths + beta.
	// Tree: root key 1, two gap leaves at depth 1.
	// Cost = f(0,1,2) + init(0) + init(1) = (1+1+1) + 1 + 1 = 5.
	in := problems.OBST([]int64{1, 1}, []int64{1})
	res := Solve(in)
	if res.Cost() != 5 {
		t.Fatalf("single-key OBST = %d, want 5", res.Cost())
	}
	knuth := Solve(problems.KnuthExampleOBST())
	if knuth.Cost() != BruteForce(problems.KnuthExampleOBST()) {
		t.Fatal("Knuth example DP disagrees with brute force")
	}
}

// Property: for random instances the DP optimum is never larger than the
// cost of any specific tree (here: the complete tree), and never smaller
// than zero.
func TestOptimumLowerBoundsAnyTree(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%10 + 2
		in := problems.RandomInstance(n, 50, seed)
		opt := Solve(in).Cost()
		tr := btree.Complete(n)
		var sum cost.Cost
		for v := int32(0); v < int32(tr.Len()); v++ {
			i, j := tr.Span(v)
			if tr.IsLeaf(v) {
				sum = cost.Add(sum, in.Init(i))
			} else {
				sum = cost.Add(sum, in.F(i, tr.Split(v), j))
			}
		}
		return opt >= 0 && opt <= sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity under uniform f increase — raising every f by a
// constant raises the optimum by exactly (#internal nodes) * delta, since
// all full binary trees over n leaves have n-1 internal nodes.
func TestUniformShiftProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%9 + 2
		base := problems.RandomInstance(n, 30, seed)
		const delta = 7
		shifted := *base
		shifted.F = func(i, k, j int) cost.Cost { return base.F(i, k, j) + delta }
		a := Solve(base).Cost()
		b := Solve(&shifted).Cost()
		return b == a+cost.Cost(delta*(n-1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
