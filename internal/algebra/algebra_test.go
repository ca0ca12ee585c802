package algebra

import (
	"math/rand"
	"strings"
	"testing"

	"sublineardp/internal/cost"
)

// Every shipped algebra must satisfy the semiring laws the solvers rely
// on — the same checker Register applies to third parties.
func TestShippedAlgebrasSatisfyLaws(t *testing.T) {
	for _, name := range Names() {
		k, ok := Lookup(name)
		if !ok {
			t.Fatalf("registered name %q does not resolve", name)
		}
		if err := CheckLaws(k); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// counting is the classic non-idempotent semiring (+, *): counting
// parenthesizations. The fixed-point iteration re-Combines the same tree
// many times, so Register must refuse it.
type counting struct{}

func (counting) Combine(a, b cost.Cost) cost.Cost { return a + b }
func (counting) Extend(a, b cost.Cost) cost.Cost  { return a * b }
func (counting) Zero() cost.Cost                  { return 0 }
func (counting) One() cost.Cost                   { return 1 }
func (counting) Name() string                     { return "counting" }

func TestRegisterRejectsNonIdempotentSemiring(t *testing.T) {
	err := Register(counting{})
	if err == nil {
		t.Fatal("Register accepted the non-idempotent counting semiring")
	}
	if !strings.Contains(err.Error(), "idempotent") && !strings.Contains(err.Error(), "laws") {
		t.Fatalf("rejection does not name the laws: %v", err)
	}
	if _, ok := Lookup("counting"); ok {
		t.Fatal("rejected semiring still resolvable")
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Fatal("nil semiring accepted")
	}
	if err := Register(MinPlus{}); err == nil {
		t.Fatal("duplicate of a shipped algebra accepted")
	}
}

// renamed wraps a lawful algebra under an arbitrary name, to probe name
// validation independently of the laws.
type renamed struct {
	MinPlus
	name string
}

func (r renamed) Name() string { return r.name }

func TestRegisterRejectsNULInName(t *testing.T) {
	// A NUL-bearing name would alias the canonical "alg\x00name\x00canon"
	// tagging across (algebra, instance) pairs.
	if err := Register(renamed{name: "x\x00y"}); err == nil {
		t.Fatal("NUL-bearing algebra name accepted")
	}
	if _, ok := Lookup("x\x00y"); ok {
		t.Fatal("rejected name resolvable")
	}
}

// leftmost is a lawful but non-shipped algebra: Combine keeps the
// smaller value like min-plus but over a capped domain. It exercises the
// third-party registration path end to end, including promotion to the
// derived kernel.
type leftmost struct{}

func (leftmost) Combine(a, b cost.Cost) cost.Cost { return cost.Min(a, b) }
func (leftmost) Extend(a, b cost.Cost) cost.Cost  { return cost.Add(a, b) }
func (leftmost) Zero() cost.Cost                  { return cost.Inf }
func (leftmost) One() cost.Cost                   { return 0 }
func (leftmost) Name() string                     { return "test-leftmost" }

func TestRegisterAcceptsLawfulThirdParty(t *testing.T) {
	if err := Register(leftmost{}); err != nil {
		t.Fatalf("lawful semiring rejected: %v", err)
	}
	k, ok := Lookup("test-leftmost")
	if !ok {
		t.Fatal("registered semiring not resolvable")
	}
	if !k.Better(1, 2) || k.Better(2, 2) {
		t.Fatal("derived Better does not follow Combine")
	}
}

func TestResolvePrecedence(t *testing.T) {
	k, err := Resolve(nil, "")
	if err != nil || k.Name() != NameMinPlus {
		t.Fatalf("default algebra = %v, %v; want min-plus", k, err)
	}
	k, err = Resolve(nil, NameMaxPlus)
	if err != nil || k.Name() != NameMaxPlus {
		t.Fatalf("instance algebra = %v, %v; want max-plus", k, err)
	}
	k, err = Resolve(BoolPlan{}, NameMaxPlus)
	if err != nil || k.Name() != NameBoolPlan {
		t.Fatalf("override = %v, %v; want bool-plan", k, err)
	}
	if _, err = Resolve(nil, "no-such-algebra"); err == nil {
		t.Fatal("unregistered instance algebra resolved")
	}
	if got := ResolveName(MaxPlus{}, NameBoolPlan); got != NameMaxPlus {
		t.Fatalf("ResolveName override = %q", got)
	}
	if got := ResolveName(nil, ""); got != NameMinPlus {
		t.Fatalf("ResolveName default = %q", got)
	}
}

// The specialised bulk primitives must agree with the generic reference
// walk on randomised panels — this is what lets the tiled kernels trust
// any Kernel implementation interchangeably.
func TestSpecialisedPrimitivesMatchGenericWalk(t *testing.T) {
	kernels := []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		for _, k := range kernels {
			// 256 cells comfortably bounds every index a panel drawn from
			// the parameter ranges below can reach.
			n := 256
			src := make([]cost.Cost, n)
			dstA := make([]cost.Cost, n)
			base := make([]int, 8)
			for i := range src {
				src[i] = k.Norm(cost.Cost(rng.Int63n(100)))
				if rng.Intn(4) == 0 {
					src[i] = k.Zero()
				}
				dstA[i] = k.Norm(cost.Cost(rng.Int63n(100)))
			}
			for i := range base {
				base[i] = rng.Intn(4)
			}
			// Small second-order panel staying inside [0, n).
			m := 1 + rng.Intn(4)
			p := Panel{
				M: m, Cnt0: 1 + rng.Intn(3), CntInc: rng.Intn(3) - 1,
				S1: rng.Intn(8), S1Step: 1 + rng.Intn(2), S1Inc: rng.Intn(2),
				D: 8 + rng.Intn(4), DStartStep: 1 + rng.Intn(3), DStartInc: rng.Intn(2),
				DStep: 1 + rng.Intn(2), DStepRow: rng.Intn(2), DInc: rng.Intn(2),
				S: 8 + rng.Intn(4), SStartStep: rng.Intn(3),
				SStep: 1 + rng.Intn(2), SInc: rng.Intn(2),
				BaseIdx: rng.Intn(4), BaseStep: 1,
			}
			var useBase []int
			if rng.Intn(2) == 0 {
				useBase = base
			}
			dstB := append([]cost.Cost(nil), dstA...)
			k.RelaxPanel(dstA, src, useBase, p)
			relaxPanelGeneric(k, dstB, src, useBase, p)
			for i := range dstA {
				if dstA[i] != dstB[i] {
					t.Fatalf("%s: RelaxPanel diverges from generic at %d (%d vs %d), panel %+v",
						k.Name(), i, dstA[i], dstB[i], p)
				}
			}

			// ReduceRelax vs the generic reduction.
			sh := ReduceShape{
				M: 1 + rng.Intn(4), Cnt0: 1 + rng.Intn(3), CntInc: rng.Intn(3) - 1,
				A: rng.Intn(8), AStartStep: 1 + rng.Intn(2), AStartInc: rng.Intn(2), AStep: 1 + rng.Intn(2),
				B: rng.Intn(8), BStartStep: 1 + rng.Intn(2), BStep: 1 + rng.Intn(2),
			}
			best0 := k.Norm(cost.Cost(rng.Int63n(100)))
			got := k.ReduceRelax(best0, src, dstB, sh)
			want := reduceRelaxGeneric(k, best0, src, dstB, sh)
			if got != want {
				t.Fatalf("%s: ReduceRelax %d != generic %d, shape %+v", k.Name(), got, want, sh)
			}
		}
	}
}

// The RelaxRows s1/start parameters above are fixed; cross-check the two
// dst buffers explicitly with a dedicated deterministic case per kernel.
func TestRelaxRowsMatchesPanelEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}} {
		for trial := 0; trial < 100; trial++ {
			n := 128
			src := make([]cost.Cost, n)
			dstA := make([]cost.Cost, n)
			for i := range src {
				src[i] = k.Norm(cost.Cost(rng.Int63n(50)))
				if rng.Intn(5) == 0 {
					src[i] = k.Zero()
				}
				dstA[i] = k.Norm(cost.Cost(rng.Int63n(50)))
			}
			dstB := append([]cost.Cost(nil), dstA...)
			m, cnt0, cntInc := 1+rng.Intn(4), 1+rng.Intn(4), rng.Intn(3)-1
			s1, s1Step := rng.Intn(8), 1+rng.Intn(2)
			d, dStep := 16+rng.Intn(8), 1+rng.Intn(4)
			s, sStep := 64+rng.Intn(8), 1+rng.Intn(4)
			stride := 1 + rng.Intn(3)
			k.RelaxRows(dstA, src, m, cnt0, cntInc, s1, s1Step, d, dStep, s, sStep, stride)
			relaxPanelGeneric(k, dstB, src, nil, Panel{
				M: m, Cnt0: cnt0, CntInc: cntInc,
				S1: s1, S1Step: s1Step,
				D: d, DStartStep: dStep, DStep: stride,
				S: s, SStartStep: sStep, SStep: stride,
			})
			for i := range dstA {
				if dstA[i] != dstB[i] {
					t.Fatalf("%s: RelaxRows diverges at %d (%d vs %d)", k.Name(), i, dstA[i], dstB[i])
				}
			}
		}
	}
}

// splitStride is the row length of the split primitives' test tables.
const splitStride = 16

// splitLayouts are the two geometries the split primitives run on: a
// dense row-major table of row length splitStride (what the stride
// adapters address) and the packed upper triangle over
// splitStride-1 objects (what recurrence.Table stores). Both hold
// every column index below splitStride on every row the tests touch.
var splitLayouts = []Rows{{Step: splitStride}, {Step: splitStride - 2, Drop: 1}}

// splitTableLen is the flat length of a test table under rows.
func splitTableLen(rows Rows) int { return rows.Org(splitStride-1) + splitStride }

// The blocked engine's split primitives must agree with the generic
// reference walk on randomised table layouts — same contract as the
// panel/reduce pinning above, including rows/cells that hold the
// algebra's Zero — on the dense and the packed geometry alike.
func TestSplitPrimitivesMatchGenericWalk(t *testing.T) {
	kernels := []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}, derived{leftmost{}}}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		for _, rows := range splitLayouts {
			for _, k := range kernels {
				tabA := make([]cost.Cost, splitTableLen(rows))
				for i := range tabA {
					tabA[i] = k.Norm(cost.Cost(rng.Int63n(60)))
					if rng.Intn(4) == 0 {
						tabA[i] = k.Zero()
					}
				}
				f := func(i, s, j int) cost.Cost {
					v := cost.Cost((i*7 + s*3 + j) % 11)
					if v == 10 {
						return k.Zero()
					}
					return v
				}
				// A legal panel layout: i < ka <= kb <= j0, run inside the row.
				i := rng.Intn(4)
				ka := i + 1 + rng.Intn(3)
				kb := ka + rng.Intn(4)
				j0 := kb + rng.Intn(3)
				m := rng.Intn(splitStride - j0 + 1)
				tabB := append([]cost.Cost(nil), tabA...)
				k.FoldSplitPanel(tabA, rows, i, ka, kb, j0, m, f)
				foldSplitPanelGeneric(k, tabB, rows, i, ka, kb, j0, m, f)
				for c := range tabA {
					if tabA[c] != tabB[c] {
						t.Fatalf("%s %+v: FoldSplitPanel diverges from generic at %d (%d vs %d), i=%d ka=%d kb=%d j0=%d m=%d",
							k.Name(), rows, c, tabA[c], tabB[c], i, ka, kb, j0, m)
					}
				}

				// FoldSplitRow with a pre-evaluated f run of the same shape.
				fRow := make([]cost.Cost, m)
				for t := range fRow {
					fRow[t] = f(i, ka, j0+t)
				}
				tabC := append([]cost.Cost(nil), tabA...)
				k.FoldSplitRow(tabA, rows, i, ka, j0, m, fRow)
				foldSplitRowGeneric(k, tabC, rows, i, ka, j0, m, fRow)
				for c := range tabA {
					if tabA[c] != tabC[c] {
						t.Fatalf("%s %+v: FoldSplitRow diverges from generic at %d (%d vs %d), i=%d k=%d j0=%d m=%d",
							k.Name(), rows, c, tabA[c], tabC[c], i, ka, j0, m)
					}
				}
			}
		}
	}
}

// The recording split primitives must (a) agree with the generic
// recording reference walk on both the value table and the split
// matrix, and (b) write the exact same value bytes as the non-recording
// primitives — recording is observable only through spl. The dense
// geometry runs through the stride adapters, the packed one through
// the Fold forms directly.
func TestSplitRecPrimitivesMatchGenericWalk(t *testing.T) {
	kernels := []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}, derived{leftmost{}}}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		for _, rows := range splitLayouts {
			for _, k := range kernels {
				tabA := make([]cost.Cost, splitTableLen(rows))
				splA := make([]int32, len(tabA))
				for c := range tabA {
					tabA[c] = k.Norm(cost.Cost(rng.Int63n(60)))
					if rng.Intn(4) == 0 {
						tabA[c] = k.Zero()
					}
					// A prior recording state: none, or some earlier split.
					splA[c] = -1
					if rng.Intn(3) == 0 {
						splA[c] = int32(rng.Intn(8))
					}
				}
				f := func(i, s, j int) cost.Cost {
					v := cost.Cost((i*7 + s*3 + j) % 11)
					if v == 10 {
						return k.Zero()
					}
					return v
				}
				i := rng.Intn(4)
				ka := i + 1 + rng.Intn(3)
				kb := ka + rng.Intn(4)
				j0 := kb + rng.Intn(3)
				m := rng.Intn(splitStride - j0 + 1)
				tabB := append([]cost.Cost(nil), tabA...)
				splB := append([]int32(nil), splA...)
				tabPlain := append([]cost.Cost(nil), tabA...)
				if rows.Drop == 0 {
					k.RelaxSplitPanelRec(tabA, splA, rows.Step, i, ka, kb, j0, m, f)
				} else {
					k.FoldSplitPanelRec(tabA, splA, rows, i, ka, kb, j0, m, f)
				}
				foldSplitPanelRecGeneric(k, tabB, splB, rows, i, ka, kb, j0, m, f)
				k.FoldSplitPanel(tabPlain, rows, i, ka, kb, j0, m, f)
				for c := range tabA {
					if tabA[c] != tabB[c] || splA[c] != splB[c] {
						t.Fatalf("%s %+v: FoldSplitPanelRec diverges from generic at %d (val %d vs %d, spl %d vs %d), i=%d ka=%d kb=%d j0=%d m=%d",
							k.Name(), rows, c, tabA[c], tabB[c], splA[c], splB[c], i, ka, kb, j0, m)
					}
					if tabA[c] != tabPlain[c] {
						t.Fatalf("%s %+v: recording changed a value at %d (%d vs %d), i=%d ka=%d kb=%d j0=%d m=%d",
							k.Name(), rows, c, tabA[c], tabPlain[c], i, ka, kb, j0, m)
					}
				}

				// FoldSplitRowRec with a pre-evaluated f run of the same shape.
				fRow := make([]cost.Cost, m)
				for t := range fRow {
					fRow[t] = f(i, ka, j0+t)
				}
				tabC := append([]cost.Cost(nil), tabA...)
				splC := append([]int32(nil), splA...)
				tabPlain = append(tabPlain[:0], tabA...)
				if rows.Drop == 0 {
					k.RelaxSplitRowRec(tabA, splA, rows.Step, i, ka, j0, m, fRow)
				} else {
					k.FoldSplitRowRec(tabA, splA, rows, i, ka, j0, m, fRow)
				}
				foldSplitRowRecGeneric(k, tabC, splC, rows, i, ka, j0, m, fRow)
				k.FoldSplitRow(tabPlain, rows, i, ka, j0, m, fRow)
				for c := range tabA {
					if tabA[c] != tabC[c] || splA[c] != splC[c] {
						t.Fatalf("%s %+v: FoldSplitRowRec diverges from generic at %d (val %d vs %d, spl %d vs %d), i=%d k=%d j0=%d m=%d",
							k.Name(), rows, c, tabA[c], tabC[c], splA[c], splC[c], i, ka, j0, m)
					}
					if tabA[c] != tabPlain[c] {
						t.Fatalf("%s %+v: row recording changed a value at %d (%d vs %d), i=%d k=%d j0=%d m=%d",
							k.Name(), rows, c, tabA[c], tabPlain[c], i, ka, j0, m)
					}
				}
			}
		}
	}
}

// The clipped cell closure is specified as exactly the m=1 panel form
// — the Knuth–Yao driver leans on that to stay bitwise identical to
// the unpruned engine. Pin every kernel (and the derived fallback)
// against FoldSplitPanelRec on random prior states, including
// pre-recorded splits and Zero-saturated cells, on both geometries
// (the dense one through RelaxSplitCellRec, the stride adapter).
func TestRelaxSplitCellRecMatchesPanelForm(t *testing.T) {
	kernels := []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}, derived{leftmost{}}}
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 300; trial++ {
		for _, rows := range splitLayouts {
			for _, k := range kernels {
				tabA := make([]cost.Cost, splitTableLen(rows))
				splA := make([]int32, len(tabA))
				for c := range tabA {
					tabA[c] = k.Norm(cost.Cost(rng.Int63n(60)))
					if rng.Intn(4) == 0 {
						tabA[c] = k.Zero()
					}
					splA[c] = -1
					if rng.Intn(3) == 0 {
						splA[c] = int32(rng.Intn(8))
					}
				}
				f := func(i, s, j int) cost.Cost {
					v := cost.Cost((i*5 + s*3 + j) % 11)
					if v == 10 {
						return k.Zero()
					}
					return v
				}
				i := rng.Intn(4)
				ka := i + 1 + rng.Intn(3)
				kb := ka + rng.Intn(4)
				j := kb + rng.Intn(splitStride-kb)
				tabB := append([]cost.Cost(nil), tabA...)
				splB := append([]int32(nil), splA...)
				if rows.Drop == 0 {
					k.RelaxSplitCellRec(tabA, splA, rows.Step, i, ka, kb, j, f)
				} else {
					k.FoldSplitCellRec(tabA, splA, rows, i, ka, kb, j, f)
				}
				k.FoldSplitPanelRec(tabB, splB, rows, i, ka, kb, j, 1, f)
				for c := range tabA {
					if tabA[c] != tabB[c] || splA[c] != splB[c] {
						t.Fatalf("%s %+v: FoldSplitCellRec diverges from m=1 panel at %d (val %d vs %d, spl %d vs %d), i=%d ka=%d kb=%d j=%d",
							k.Name(), rows, c, tabA[c], tabB[c], splA[c], splB[c], i, ka, kb, j)
					}
				}
			}
		}
	}
}

func TestScalarHelpers(t *testing.T) {
	for _, k := range []Kernel{MinPlus{}, MaxPlus{}, BoolPlan{}} {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 200; trial++ {
			a := k.Norm(cost.Cost(rng.Int63n(1000)))
			b := k.Norm(cost.Cost(rng.Int63n(1000)))
			c := k.Norm(cost.Cost(rng.Int63n(1000)))
			if got, want := k.Extend3(a, b, c), k.Extend(a, k.Extend(b, c)); got != want {
				t.Fatalf("%s: Extend3 %d != %d", k.Name(), got, want)
			}
			if got, want := k.Relax2(a, b, c), k.Combine(a, k.Extend(b, c)); got != want {
				t.Fatalf("%s: Relax2 %d != %d", k.Name(), got, want)
			}
			if got, want := k.Relax3(a, a, b, c), k.Combine(a, k.Extend3(a, b, c)); got != want {
				t.Fatalf("%s: Relax3 %d != %d", k.Name(), got, want)
			}
			buf := []cost.Cost{a}
			changed := k.RelaxAt(buf, 0, b, c)
			if want := k.Combine(a, k.Extend(b, c)); buf[0] != want {
				t.Fatalf("%s: RelaxAt left %d, want %d", k.Name(), buf[0], want)
			}
			if changed != (buf[0] != a) {
				t.Fatalf("%s: RelaxAt change report wrong", k.Name())
			}
		}
	}
}
