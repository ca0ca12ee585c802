package algebra

import (
	"math/rand"
	"slices"
	"testing"

	"sublineardp/internal/cost"
)

// fusedCase is one randomised fused-body call: a table with a prior
// recording state, product weights, and a split run [ka,kb) folded into
// the m cells (i, j0..).
type fusedCase struct {
	tab           []cost.Cost
	spl           []int32
	w             []cost.Cost
	i, ka, kb, j0 int
	m             int
}

// newFusedCase draws a case on geometry rows whose values cluster on a
// few small numbers (so candidates tie at k and at k+1), whose prior
// splits are often already below ka, and which carries the algebra's
// Zero in left and right factors: on every split of the run, on the
// first or second of a pair only, or at random. Min-plus cells near Inf
// and weights of 2^19 (products up to 2^57, as ProductFits allows) make
// raw sums reach Inf.
func newFusedCase(rng *rand.Rand, k Kernel, rows Rows) fusedCase {
	c := fusedCase{tab: make([]cost.Cost, splitTableLen(rows))}
	c.spl = make([]int32, len(c.tab))
	for x := range c.tab {
		switch r := rng.Intn(10); {
		case r < 2:
			c.tab[x] = k.Zero()
		case r == 2 && k.Name() == NameMinPlus:
			c.tab[x] = cost.Inf - cost.Cost(rng.Int63n(40))
		default:
			c.tab[x] = k.Norm(cost.Cost(rng.Int63n(6)))
		}
		c.spl[x] = -1
		if rng.Intn(2) == 0 {
			c.spl[x] = int32(rng.Intn(splitStride))
		}
	}
	c.w = make([]cost.Cost, splitStride)
	for x := range c.w {
		c.w[x] = cost.Cost(1 + rng.Intn(3))
		if rng.Intn(8) == 0 {
			c.w[x] = 1 << 19
		}
	}
	c.i = rng.Intn(4)
	c.ka = c.i + 1 + rng.Intn(3)
	c.kb = c.ka + rng.Intn(5)
	c.j0 = c.kb + rng.Intn(3)
	c.m = rng.Intn(splitStride - c.j0 + 1)
	row := rows.Org(c.i)
	switch rng.Intn(4) {
	case 0: // only the first split of the run is absent
		c.tab[row+c.ka] = k.Zero()
	case 1: // only the second
		if c.ka+1 < c.kb {
			c.tab[row+c.ka+1] = k.Zero()
		}
	}
	return c
}

func (c fusedCase) clone() ([]cost.Cost, []int32) {
	return append([]cost.Cost(nil), c.tab...), append([]int32(nil), c.spl...)
}

// fusedRun is one fused body under test and its reference: one
// FoldSplitRow(Rec) call per split of the run, in ascending k.
type fusedRun struct {
	name string
	run  func(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, w []cost.Cost)
	fRow func(w []cost.Cost, i, k, j int) cost.Cost
}

func fusedRuns(k Kernel) []fusedRun {
	var runs []fusedRun
	product := func(w []cost.Cost, i, s, j int) cost.Cost { return w[i] * w[s] * w[j] }
	one := func([]cost.Cost, int, int, int) cost.Cost { return k.One() }
	if pf, ok := k.(ProductFolder); ok {
		runs = append(runs,
			fusedRun{"FoldProductRun", func(tab []cost.Cost, _ []int32, rows Rows, i, ka, kb, j0, m int, w []cost.Cost) {
				pf.FoldProductRun(tab, rows, i, ka, kb, j0, m, w)
			}, product},
			fusedRun{"FoldProductRunRec", pf.FoldProductRunRec, product})
	}
	if bf, ok := k.(BareFolder); ok {
		runs = append(runs,
			fusedRun{"FoldBareRun", func(tab []cost.Cost, _ []int32, rows Rows, i, ka, kb, j0, m int, _ []cost.Cost) {
				bf.FoldBareRun(tab, rows, i, ka, kb, j0, m)
			}, one},
			fusedRun{"FoldBareRunRec", func(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, _ []cost.Cost) {
				bf.FoldBareRunRec(tab, spl, rows, i, ka, kb, j0, m)
			}, one})
	}
	return runs
}

// Every fused body, recording and not, must equal the same body called
// once per split in ascending k (so folding two splits per pass changes
// nothing), and both must equal one FoldSplitRow(Rec) call per split
// with the F run the declaration implies — in values and in recorded
// splits, bitwise. A non-recording body must leave the split matrix
// alone, and a recording one must write the values the non-recording
// one does.
func TestFusedBodiesMatchOneSplitCalls(t *testing.T) {
	want := map[string][]string{
		NameMinPlus:  {"FoldProductRun", "FoldProductRunRec", "FoldBareRun", "FoldBareRunRec"},
		NameMaxPlus:  {"FoldProductRun", "FoldProductRunRec"},
		NameBoolPlan: {"FoldBareRun", "FoldBareRunRec"},
	}
	rng := rand.New(rand.NewSource(40))
	for _, k := range []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}} {
		runs := fusedRuns(k)
		var names []string
		for _, fr := range runs {
			names = append(names, fr.name)
		}
		if !slices.Equal(names, want[k.Name()]) {
			t.Fatalf("%s: fused bodies %v, want %v", k.Name(), names, want[k.Name()])
		}
		for idx, fr := range runs {
			rec := idx%2 == 1 // runs pair each body with its recording twin
			for trial := 0; trial < 2000; trial++ {
				for _, rows := range splitLayouts {
					c := newFusedCase(rng, k, rows)
					tabA, splA := c.clone()
					fr.run(tabA, splA, rows, c.i, c.ka, c.kb, c.j0, c.m, c.w)

					tabB, splB := c.clone()
					tabC, splC := c.clone()
					fRow := make([]cost.Cost, c.m)
					for s := c.ka; s < c.kb; s++ {
						fr.run(tabB, splB, rows, c.i, s, s+1, c.j0, c.m, c.w)
						for x := range fRow {
							fRow[x] = fr.fRow(c.w, c.i, s, c.j0+x)
						}
						if rec {
							k.FoldSplitRowRec(tabC, splC, rows, c.i, s, c.j0, c.m, fRow)
						} else {
							k.FoldSplitRow(tabC, rows, c.i, s, c.j0, c.m, fRow)
						}
					}
					for x := range tabA {
						if tabA[x] != tabB[x] || splA[x] != splB[x] {
							t.Fatalf("%s.%s %+v: run [%d,%d) differs from one-split calls at %d (val %d vs %d, spl %d vs %d), i=%d j0=%d m=%d",
								k.Name(), fr.name, rows, c.ka, c.kb, x, tabA[x], tabB[x], splA[x], splB[x], c.i, c.j0, c.m)
						}
						if tabA[x] != tabC[x] || splA[x] != splC[x] {
							t.Fatalf("%s.%s %+v: run [%d,%d) differs from FoldSplitRow at %d (val %d vs %d, spl %d vs %d), i=%d j0=%d m=%d",
								k.Name(), fr.name, rows, c.ka, c.kb, x, tabA[x], tabC[x], splA[x], splC[x], c.i, c.j0, c.m)
						}
						if !rec && splA[x] != c.spl[x] {
							t.Fatalf("%s.%s: non-recording body wrote split %d at %d", k.Name(), fr.name, splA[x], x)
						}
					}
					if rec {
						tabP, splP := c.clone()
						runs[idx-1].run(tabP, splP, rows, c.i, c.ka, c.kb, c.j0, c.m, c.w)
						for x := range tabA {
							if tabA[x] != tabP[x] {
								t.Fatalf("%s.%s: recording changed a value at %d (%d vs %d)", k.Name(), fr.name, x, tabA[x], tabP[x])
							}
						}
					}
				}
			}
		}
	}
}

// ProductFits admits exactly the weight lists whose every triple product
// stays below Inf without overflow.
func TestProductFits(t *testing.T) {
	cbrt := cost.Cost(1)
	for (cbrt+1)*(cbrt+1)*(cbrt+1) < cost.Inf {
		cbrt++
	}
	for _, tc := range []struct {
		w    []cost.Cost
		fits bool
	}{
		{nil, true},
		{[]cost.Cost{0, 0}, true},
		{[]cost.Cost{3, 1 << 19, 7}, true},
		{[]cost.Cost{cbrt, 1}, true},
		{[]cost.Cost{1, cbrt + 1}, false},
		{[]cost.Cost{1 << 21}, false}, // 2^63 wraps
		{[]cost.Cost{cost.Inf}, false},
		{[]cost.Cost{5, -1}, false},
	} {
		if got := ProductFits(tc.w); got != tc.fits {
			t.Errorf("ProductFits(%v) = %v, want %v", tc.w, got, tc.fits)
		}
	}
}

// The derived kernel of a third-party semiring has no fused body, so the
// tile engines fall back to F runs for it.
func TestDerivedKernelHasNoFusedBody(t *testing.T) {
	k := Promote(leftmost{})
	if _, ok := k.(ProductFolder); ok {
		t.Error("derived kernel claims a product body")
	}
	if _, ok := k.(BareFolder); ok {
		t.Error("derived kernel claims a bare body")
	}
}
