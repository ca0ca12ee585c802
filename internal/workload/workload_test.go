package workload

import (
	"context"
	"testing"
	"testing/quick"

	"sublineardp/internal/core"
	"sublineardp/internal/llp"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

func TestZipfShape(t *testing.T) {
	ws := Zipf(100, 1.0, 1000, 1)
	if len(ws) != 100 {
		t.Fatalf("len = %d", len(ws))
	}
	var max, sum int64
	for _, w := range ws {
		if w < 1 {
			t.Fatalf("weight %d below 1", w)
		}
		if w > max {
			max = w
		}
		sum += w
	}
	if max != 1000 {
		t.Fatalf("max = %d, want 1000 (scale)", max)
	}
	// Zipf mass is concentrated: the sum must be far below n*max.
	if sum > 100*1000/5 {
		t.Fatalf("sum %d too uniform for Zipf", sum)
	}
}

func TestZipfReproducible(t *testing.T) {
	a := Zipf(50, 1.2, 500, 7)
	b := Zipf(50, 1.2, 500, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad parameters accepted")
		}
	}()
	Zipf(0, 1, 10, 1)
}

func TestDictionaryOBSTSolvable(t *testing.T) {
	in := DictionaryOBST(20, 3)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	want := seq.Solve(in).Table
	got := core.Solve(in, core.Options{Variant: core.Banded})
	if !got.Table.Equal(want) {
		t.Fatal("parallel disagrees on dictionary OBST")
	}
}

func TestMLPChainShape(t *testing.T) {
	in := MLPChain(3, 784, 256, 10)
	// dims: 1, 784, 256, 256, 10 -> N = 4 matrices.
	if in.N != 4 {
		t.Fatalf("N = %d, want 4", in.N)
	}
	// Left-to-right association keeps every intermediate a row vector; the
	// optimum must therefore be far below the right-to-left order.
	res := seq.Solve(in)
	leftToRight := int64(1*784*256 + 1*256*256 + 1*256*10)
	if int64(res.Cost()) > leftToRight {
		t.Fatalf("optimum %d worse than left-to-right %d", res.Cost(), leftToRight)
	}
}

func TestSensorPolygonSolvable(t *testing.T) {
	in := SensorPolygon(14, 1000, 0.05, 9)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	want := seq.Solve(in).Table
	got := core.Solve(in, core.Options{Variant: core.Banded, Termination: core.WStable})
	if !got.Table.Equal(want) {
		t.Fatal("parallel disagrees on sensor polygon")
	}
}

// Property: all workload generators produce valid instances whose
// parallel and sequential solutions agree.
func TestWorkloadsAgreeProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%10 + 4
		for _, in := range []*recurrence.Instance{
			DictionaryOBST(n, seed),
			SensorPolygon(n, 800, 0.1, seed),
		} {
			if in.Validate() != nil {
				return false
			}
			if !core.Solve(in, core.Options{Variant: core.Banded}).Table.Equal(seq.Solve(in).Table) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// The algebra families must declare their semirings, be canonicalisable
// (servable/cacheable), and produce both outcomes across seeds.
func TestWorstCaseChainGenerator(t *testing.T) {
	in := WorstCaseChain(24, 7)
	if in.Algebra != "max-plus" {
		t.Fatalf("algebra = %q", in.Algebra)
	}
	if _, ok := in.Canonical(); !ok {
		t.Fatal("worstchain instance not canonicalisable")
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic per seed.
	a, _ := WorstCaseChain(24, 7).Canonical()
	b, _ := in.Canonical()
	if string(a) != string(b) {
		t.Fatal("generator not deterministic")
	}
}

func TestFeasibilityPlanGenerator(t *testing.T) {
	feasible, infeasible := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		in := FeasibilityPlan(16, seed)
		if in.Algebra != "bool-plan" {
			t.Fatalf("algebra = %q", in.Algebra)
		}
		if _, ok := in.Canonical(); !ok {
			t.Fatal("feasibility instance not canonicalisable")
		}
		res, err := seq.SolveSemiringCtx(context.Background(), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Cost() {
		case 1:
			feasible++
		case 0:
			infeasible++
		default:
			t.Fatalf("seed %d: non-boolean root %d", seed, res.Cost())
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("seeds one-sided: %d feasible, %d infeasible — the mix must exercise both", feasible, infeasible)
	}
}

// Every n >= 2 samples in bounded time — at n = 2 the root is the only
// span the random branch could ban, and it never bans the root — and
// every sampled pair is a span of two or more objects below the root.
func TestFeasibilitySpansSmallN(t *testing.T) {
	for n := 2; n <= 6; n++ {
		for seed := int64(0); seed < 8; seed++ {
			for _, p := range FeasibilitySpans(n, seed) {
				if p[0] < 0 || p[1] > n || p[1]-p[0] < 2 || (p[0] == 0 && p[1] == n && seed%4 != 3) {
					t.Fatalf("n=%d seed=%d: sampled pair %v", n, seed, p)
				}
			}
		}
	}
}

// The chain families must declare their semirings, be canonicalisable
// (servable/cacheable), validate, and agree between the sequential and
// LLP engines.
func TestChainWorkloadGenerators(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, c := range []*recurrence.Chain{
			TelemetrySeries(20, seed),
			JobSchedule(18, seed),
			CoinFeasibility(40+seed, seed),
		} {
			if c.Algebra == "" {
				t.Fatalf("%s declares no algebra", c.Name)
			}
			if _, ok := c.Canonical(); !ok {
				t.Fatalf("%s not canonicalisable", c.Name)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			want := seq.SolveChain(c)
			got := llp.Solve(c, llp.Options{Workers: 3})
			if !got.Values.Equal(want.Values) {
				t.Fatalf("%s: llp values differ from sequential", c.Name)
			}
		}
	}
}

func TestCoinFeasibilityBothOutcomes(t *testing.T) {
	// seed%4==3 builds an all-even coin system: odd targets unreachable.
	infeasible := CoinFeasibility(41, 3)
	if got := seq.SolveChain(infeasible); got.Feasible() {
		t.Fatal("all-even coins reached an odd target")
	}
	feasible := CoinFeasibility(40, 0)
	if got := seq.SolveChain(feasible); !got.Feasible() {
		t.Fatalf("%s unexpectedly infeasible", feasible.Name)
	}
}
