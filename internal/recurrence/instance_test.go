package recurrence

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sublineardp/internal/cost"
)

func toy(n int) *Instance {
	return &Instance{
		N:    n,
		Name: "toy",
		Init: func(i int) cost.Cost { return cost.Cost(i + 1) },
		F:    func(i, k, j int) cost.Cost { return cost.Cost(i + k + j) },
	}
}

func TestValidateOK(t *testing.T) {
	if err := toy(6).Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestValidateRejectsSmallN(t *testing.T) {
	in := toy(0)
	if err := in.Validate(); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestValidateRejectsNilCallbacks(t *testing.T) {
	in := &Instance{N: 3}
	if err := in.Validate(); err == nil {
		t.Fatal("nil callbacks accepted")
	}
}

func TestValidateRejectsNegativeInit(t *testing.T) {
	in := toy(4)
	in.Init = func(i int) cost.Cost { return -1 }
	err := in.Validate()
	if err == nil || !strings.Contains(err.Error(), "init") {
		t.Fatalf("negative init not caught: %v", err)
	}
}

func TestValidateRejectsNegativeF(t *testing.T) {
	in := toy(4)
	in.F = func(i, k, j int) cost.Cost {
		if i == 0 && k == 2 && j == 3 {
			return -5
		}
		return 0
	}
	err := in.Validate()
	if err == nil || !strings.Contains(err.Error(), "f(0,2,3)") {
		t.Fatalf("negative f not caught: %v", err)
	}
}

func TestNumNodes(t *testing.T) {
	cases := map[int]int{1: 1, 2: 3, 3: 6, 10: 55}
	for n, want := range cases {
		if got := toy(n).NumNodes(); got != want {
			t.Errorf("NumNodes(N=%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMaterializeAgrees(t *testing.T) {
	in := toy(8)
	m := in.Materialize()
	if m.N != in.N || m.Name != in.Name {
		t.Fatalf("metadata lost: %+v", m)
	}
	for i := 0; i < in.N; i++ {
		if m.Init(i) != in.Init(i) {
			t.Fatalf("init(%d) mismatch", i)
		}
	}
	for i := 0; i <= in.N; i++ {
		for k := i + 1; k <= in.N; k++ {
			for j := k + 1; j <= in.N; j++ {
				if m.F(i, k, j) != in.F(i, k, j) {
					t.Fatalf("f(%d,%d,%d) mismatch", i, k, j)
				}
			}
		}
	}
}

func TestMaterializeIsStable(t *testing.T) {
	// Materialized instance must not re-invoke the original callbacks.
	calls := 0
	in := &Instance{
		N:    5,
		Init: func(i int) cost.Cost { calls++; return 1 },
		F:    func(i, k, j int) cost.Cost { calls++; return 1 },
	}
	m := in.Materialize()
	calls = 0
	_ = m.Init(2)
	_ = m.F(0, 2, 4)
	if calls != 0 {
		t.Fatalf("materialized instance re-invoked callbacks %d times", calls)
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable(5)
	if !cost.IsInf(tb.At(0, 5)) {
		t.Fatal("fresh table not Inf")
	}
	tb.Set(1, 4, 42)
	if tb.At(1, 4) != 42 {
		t.Fatal("Set/At roundtrip failed")
	}
	tb.Set(0, 5, 7)
	if tb.Root() != 7 {
		t.Fatalf("Root = %d, want 7", tb.Root())
	}
}

func TestTableEqualAndClone(t *testing.T) {
	a := NewTable(4)
	a.Set(0, 4, 10)
	a.Set(1, 3, 3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(1, 3, 4)
	if a.Equal(b) {
		t.Fatal("differing tables compared equal")
	}
	if a.Equal(NewTable(5)) {
		t.Fatal("different sizes compared equal")
	}
}

func TestTableEqualNormalisesInf(t *testing.T) {
	a := NewTable(3)
	b := NewTable(3)
	a.Set(0, 3, cost.Inf+99) // non-canonical infinity
	if !a.Equal(b) {
		t.Fatal("infinities not normalised in Equal")
	}
}

func TestTableDiff(t *testing.T) {
	a := NewTable(3)
	b := NewTable(3)
	a.Set(0, 2, 1)
	a.Set(1, 3, 2)
	d := a.Diff(b, 0)
	if len(d) != 2 {
		t.Fatalf("Diff found %d entries, want 2: %v", len(d), d)
	}
	d = a.Diff(b, 1)
	if len(d) != 1 {
		t.Fatalf("Diff with max=1 returned %d entries", len(d))
	}
	if len(a.Diff(NewTable(7), 0)) != 1 {
		t.Fatal("size mismatch not reported")
	}
}

// packedSizes are the table sizes the layout tests sweep: the
// smallest tables, an odd and an even mid size, and one either side of
// a 64-cell boundary.
var packedSizes = []int{1, 2, 3, 17, 64, 65}

// cellValue is a distinct value per cell, so an aliased write shows.
func cellValue(n, i, j int) cost.Cost { return cost.Cost(i*(n+1) + j + 1) }

// The packed layout stores exactly the cells i < j, each at its own
// slot: Set/At/Row round-trip on every cell, the flat data holds them in
// row-major order after the pad slot, and spans with j <= i read Inf
// and take no writes.
func TestTablePackedLayoutRoundTrip(t *testing.T) {
	for _, n := range packedSizes {
		tb := NewTable(n)
		if got, want := len(tb.Data()), 1+n*(n+1)/2; got != want {
			t.Fatalf("n=%d: %d cells stored, want %d", n, got, want)
		}
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				tb.Set(i, j, cellValue(n, i, j))
			}
			for j := 0; j <= i; j++ {
				tb.Set(i, j, -1) // no storage: dropped
			}
		}
		next := 1
		for i := 0; i <= n; i++ {
			row := tb.Row(i)
			if len(row) != n+1 {
				t.Fatalf("n=%d: Row(%d) has %d entries, want %d", n, i, len(row), n+1)
			}
			for j := 0; j <= n; j++ {
				if j <= i {
					if got := tb.At(i, j); got != cost.Inf {
						t.Fatalf("n=%d: At(%d,%d) = %d below the diagonal, want Inf", n, i, j, got)
					}
					continue
				}
				want := cellValue(n, i, j)
				if got := tb.At(i, j); got != want {
					t.Fatalf("n=%d: At(%d,%d) = %d, want %d", n, i, j, got, want)
				}
				if got := row[j]; got != want {
					t.Fatalf("n=%d: Row(%d)[%d] = %d, want %d", n, i, j, got, want)
				}
				if got := tb.Data()[next]; got != want {
					t.Fatalf("n=%d: data[%d] = %d, want cell (%d,%d) = %d", n, next, got, i, j, want)
				}
				if o := tb.Rows().Org(i) + j; o != next {
					t.Fatalf("n=%d: cell (%d,%d) at %d, want %d", n, i, j, o, next)
				}
				next++
			}
		}
		if tb.Data()[0] != cost.Inf {
			t.Fatalf("n=%d: pad slot written: %d", n, tb.Data()[0])
		}
		if tb.Root() != cellValue(n, 0, n) {
			t.Fatalf("n=%d: Root = %d", n, tb.Root())
		}
	}
}

// Clone, Equal and Diff see every packed cell, and nothing else.
func TestTablePackedCloneEqualDiff(t *testing.T) {
	for _, n := range packedSizes {
		a := NewTable(n)
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				a.Set(i, j, cellValue(n, i, j))
			}
		}
		b := a.Clone()
		if !a.Equal(b) || len(a.Diff(b, 0)) != 0 {
			t.Fatalf("n=%d: clone differs: %v", n, a.Diff(b, 0))
		}
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				c := b.Clone()
				c.Set(i, j, 0)
				if a.Equal(c) {
					t.Fatalf("n=%d: change at (%d,%d) not seen by Equal", n, i, j)
				}
				if d := a.Diff(c, 0); len(d) != 1 || !strings.HasPrefix(d[0], fmt.Sprintf("(%d,%d):", i, j)) {
					t.Fatalf("n=%d: Diff after a change at (%d,%d) = %v", n, i, j, d)
				}
			}
		}
		b.Set(0, n, 0)
		if a.Root() == 0 {
			t.Fatalf("n=%d: Clone shares storage with its source", n)
		}
	}
}

// The algebra participates in the canonical encoding — except for
// min-plus, whose bytes must stay exactly the raw Canon output so
// content hashes from before algebras existed remain stable.
func TestCanonicalFoldsAlgebra(t *testing.T) {
	canon := func() []byte { return []byte{1, 2, 3} }
	minplus := &Instance{N: 2, Canon: canon}
	explicit := &Instance{N: 2, Canon: canon, Algebra: "min-plus"}
	maxplus := &Instance{N: 2, Canon: canon, Algebra: "max-plus"}
	boolplan := &Instance{N: 2, Canon: canon, Algebra: "bool-plan"}

	cm, ok := minplus.Canonical()
	if !ok || !bytes.Equal(cm, []byte{1, 2, 3}) {
		t.Fatalf("min-plus canonical %v altered", cm)
	}
	ce, _ := explicit.Canonical()
	if !bytes.Equal(cm, ce) {
		t.Fatal("explicit min-plus differs from default")
	}
	cx, _ := maxplus.Canonical()
	cb, _ := boolplan.Canonical()
	if bytes.Equal(cx, cm) || bytes.Equal(cb, cm) || bytes.Equal(cx, cb) {
		t.Fatal("algebra tag does not separate canonical encodings")
	}
	if !bytes.HasSuffix(cx, []byte{1, 2, 3}) {
		t.Fatal("tagged encoding does not preserve the Canon bytes")
	}
}

func TestMaterializePreservesAlgebra(t *testing.T) {
	in := &Instance{
		N:       3,
		Algebra: "max-plus",
		Init:    func(i int) cost.Cost { return 1 },
		F:       func(i, k, j int) cost.Cost { return 2 },
	}
	if got := in.Materialize().Algebra; got != "max-plus" {
		t.Fatalf("Materialize dropped the algebra: %q", got)
	}
}
