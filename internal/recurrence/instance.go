// Package recurrence defines the dynamic-programming problem family the
// paper calls recurrence (*):
//
//	c(i,j) = min_{i<k<j} { c(i,k) + c(k,j) + f(i,k,j) }    0 <= i < j <= n
//	c(i,i+1) = init(i)                                      0 <= i <= n-1
//
// with nonnegative f and init. Matrix-chain multiplication, optimal binary
// search trees and optimal polygon triangulation are all members (see
// internal/problems). Every solver in this repository consumes an Instance.
package recurrence

import (
	"errors"
	"fmt"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
)

// Instance is one concrete problem of the recurrence family (*).
//
// The objects being parenthesised are a_1..a_N; tree nodes are index pairs
// (i,j) with 0 <= i < j <= N; leaves are (i,i+1). The zero Instance is not
// usable: construct instances via internal/problems or fill all fields.
type Instance struct {
	// N is the number of objects; the answer sought is c(0,N).
	N int

	// Init gives the weight of leaf (i,i+1), 0 <= i <= N-1.
	Init func(i int) cost.Cost

	// F gives the decomposition cost f(i,k,j) of splitting node (i,j)
	// into sons (i,k) and (k,j), for 0 <= i < k < j <= N.
	F func(i, k, j int) cost.Cost

	// FPanel, when non-nil, bulk-evaluates F over one j-run: it fills
	// dst[t] = F(i, k, j0+t) for 0 <= t < len(dst), with every j0+t a
	// valid third argument (i < k < j0). It is semantically redundant
	// with F and must agree with it on every argument (Validate checks);
	// engines that sweep j-contiguous candidate runs (the blocked
	// engine's panels) use it to amortise the per-candidate closure call
	// into one tight loop. Constructors whose f has a cheap row form set
	// it; Materialize always provides one (a flat-table copy).
	//
	// Cost contract: O(1) per cell, with no hashing or search per cell —
	// the engines' work counts price each candidate's f as one step. A
	// k-independent f is a row fill (plus, for a sparse exception list,
	// one search per run). Engines may skip a run whose left factor
	// c(i,k) is the algebra's Zero, so FPanel must be a pure function of
	// its arguments, and it may be called from several goroutines at once.
	FPanel func(i, k, j0 int, dst []cost.Cost)

	// Name labels the instance in experiment tables and error messages.
	Name string

	// Algebra names the idempotent semiring the recurrence is evaluated
	// over ("" means "min-plus", the paper's algebra). Every engine
	// resolves it through the algebra registry unless the caller
	// overrides it with an explicit semiring option; constructors of
	// intrinsically non-min-plus families (worst-case parenthesization,
	// forbidden-split feasibility) set it. The name participates in the
	// canonical encoding, so the same parameters under different
	// algebras can never share a cache entry.
	Algebra string

	// Canon, when non-nil, returns a stable, self-describing byte
	// encoding of the instance: two instances whose Canon bytes are equal
	// must describe the same recurrence (identical N, Init and F on every
	// argument). Constructors that build instances from concrete
	// parameters (matrix dimensions, OBST weights, polygon vertices) set
	// it; synthetic instances backed by opaque closures leave it nil and
	// are simply not canonicalisable. The encoding is the input to
	// content-addressed caching, so it must be injective per kind — it
	// always starts with a kind tag followed by the defining parameters.
	Canon func() []byte

	// Convex declares that the instance satisfies the Knuth–Yao
	// conditions for recurrence (*) under min-plus: f(i,k,j) is
	// independent of k — write it w(i,j), with w(i,i+1) = Init(i) — and w
	// satisfies the quadrangle inequality
	//
	//	w(i,j) + w(i',j') <= w(i,j') + w(i',j)   for i <= i' <= j <= j'
	//
	// and is monotone on interval inclusion (w(i',j) <= w(i,j') whenever
	// [i',j] ⊆ [i,j']). Under these conditions the smallest optimal split
	// K(i,j) is monotone — K(i,j-1) <= K(i,j) <= K(i+1,j) — which is what
	// licenses the pruned blocked-ky engine to scan only that candidate
	// window. The declaration is a constructor-made promise (OBST-style
	// families set it); Validate spot-checks it with a sampled auditor,
	// internal/verify.QuadrangleInequality audits it thoroughly, and it
	// participates in the canonical encoding so a declared-convex
	// instance never shares a cache entry with its undeclared twin.
	// Meaningful only under min-plus: Validate rejects the declaration on
	// instances declaring any other algebra.
	Convex bool
}

// Canonical returns the instance's stable canonical encoding and true,
// or nil and false when the instance has no Canon hook (and therefore
// cannot be content-addressed). The bytes are safe to hash or compare:
// equality implies every solver observes identical inputs — including
// the algebra, which is folded in as a tag so min-plus and max-plus
// solutions of the same parameters never collide in a cache.
//
// Min-plus instances (the default) keep exactly their Canon bytes, so
// content hashes from before algebras existed remain stable. Any other
// algebra is prefixed with "alg\x00<name>\x00"; Canon encodings start
// with a varint kind-name length, and no registered kind is the 97
// characters long a first byte of 'a' would imply, so the prefixed and
// unprefixed spaces cannot collide. A declared-convex instance gets the
// outermost prefix "qi\x00" (first byte 'q' = 113, colliding with no
// kind-name length either): convexity is a routing-relevant claim about
// the instance, so the declared and undeclared twins must never alias
// one cache entry.
func (in *Instance) Canonical() ([]byte, bool) {
	if in.Canon == nil {
		return nil, false
	}
	c := in.Canon()
	if in.Algebra != "" && in.Algebra != "min-plus" {
		tagged := make([]byte, 0, len(in.Algebra)+5+len(c))
		tagged = append(tagged, "alg\x00"...)
		tagged = append(tagged, in.Algebra...)
		tagged = append(tagged, 0)
		c = append(tagged, c...)
	}
	if in.Convex {
		c = append([]byte("qi\x00"), c...)
	}
	return c, true
}

// Validate checks the structural preconditions the paper assumes:
// N >= 1, callbacks present, and all init/f values nonnegative.
// It evaluates every init value and every f triple, so it is O(N^3);
// intended for tests and small experiment sizes. When the instance
// declares Convex it additionally runs a cheap sampled Knuth–Yao audit
// (k-independence of f plus the quadrangle inequality and monotonicity
// on deterministic sample quadruples); internal/verify's
// QuadrangleInequality is the thorough version.
func (in *Instance) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("recurrence: instance %q has N=%d, need >= 1", in.Name, in.N)
	}
	if in.Init == nil || in.F == nil {
		return errors.New("recurrence: Init and F must be non-nil")
	}
	if in.Convex {
		if in.Algebra != "" && in.Algebra != "min-plus" {
			return fmt.Errorf("recurrence: instance %q declares Convex under algebra %q; the Knuth–Yao conditions are defined for min-plus only", in.Name, in.Algebra)
		}
		if err := in.convexAudit(); err != nil {
			return err
		}
	}
	for i := 0; i < in.N; i++ {
		if v := in.Init(i); v < 0 {
			return fmt.Errorf("recurrence: init(%d) = %d is negative", i, v)
		}
	}
	var panelRow []cost.Cost
	if in.FPanel != nil {
		panelRow = make([]cost.Cost, in.N+1)
	}
	for i := 0; i <= in.N; i++ {
		for k := i + 1; k <= in.N; k++ {
			if panelRow != nil && k < in.N {
				in.FPanel(i, k, k+1, panelRow[:in.N-k])
			}
			for j := k + 1; j <= in.N; j++ {
				v := in.F(i, k, j)
				if v < 0 {
					return fmt.Errorf("recurrence: f(%d,%d,%d) = %d is negative", i, k, j, v)
				}
				if panelRow != nil && panelRow[j-k-1] != v {
					return fmt.Errorf("recurrence: FPanel(%d,%d,%d) = %d disagrees with F = %d",
						i, k, j, panelRow[j-k-1], v)
				}
			}
		}
	}
	return nil
}

// convexWeight probes the Knuth–Yao weight w(i,j) of a declared-convex
// instance: Init for leaves, f(i,i+1,j) otherwise — legal because a
// convex f is independent of its split argument (convexAudit checks
// that first).
func (in *Instance) convexWeight(i, j int) cost.Cost {
	if j == i+1 {
		return in.Init(i)
	}
	return in.F(i, i+1, j)
}

// convexAudit spot-checks the declared Knuth–Yao conditions on a fixed
// deterministic sample: k-independence of f, then the quadrangle
// inequality and interval monotonicity of w over sampled quadruples
// i <= i' < j <= j'. A cheap gate — internal/verify.QuadrangleInequality
// is the thorough randomized auditor.
func (in *Instance) convexAudit() error {
	n := in.N
	// xorshift64*: deterministic, seedless, no math/rand dependency.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int((state * 0x2545f4914f6cdd1d >> 33) % uint64(bound))
	}
	samples := 8 * n
	if samples > 512 {
		samples = 512
	}
	for s := 0; s < samples && n >= 3; s++ {
		i := next(n - 2)
		j := i + 3 + next(n-i-2) // j in [i+3, n]
		k1, k2 := i+1+next(j-i-1), i+1+next(j-i-1)
		if a, b := in.F(i, k1, j), in.F(i, k2, j); a != b {
			return fmt.Errorf("recurrence: instance %q declares Convex but f(%d,%d,%d)=%d != f(%d,%d,%d)=%d (f must not depend on the split)",
				in.Name, i, k1, j, a, i, k2, j, b)
		}
	}
	for s := 0; s < samples && n >= 2; s++ {
		i := next(n)
		ip := i + next(n-i)      // i' in [i, n-1]
		j := ip + 1 + next(n-ip) // j in [i'+1, n]
		jp := j + next(n-j+1)    // j' in [j, n]
		a := in.convexWeight(i, j) + in.convexWeight(ip, jp)
		b := in.convexWeight(i, jp) + in.convexWeight(ip, j)
		if a > b {
			return fmt.Errorf("recurrence: instance %q declares Convex but w(%d,%d)+w(%d,%d)=%d > w(%d,%d)+w(%d,%d)=%d violates the quadrangle inequality",
				in.Name, i, j, ip, jp, a, i, jp, ip, j, b)
		}
		if in.convexWeight(ip, j) > in.convexWeight(i, jp) {
			return fmt.Errorf("recurrence: instance %q declares Convex but w(%d,%d) > w(%d,%d) violates monotonicity on [%d,%d] ⊆ [%d,%d]",
				in.Name, ip, j, i, jp, ip, j, i, jp)
		}
	}
	return nil
}

// NumNodes returns the number of (i,j) pairs with 0 <= i < j <= N,
// i.e. the size of the w table's upper triangle.
func (in *Instance) NumNodes() int {
	n := in.N + 1
	return n * (n - 1) / 2
}

// Materialize returns a copy of the instance whose F and Init are backed
// by precomputed flat tables, so that repeated solver runs pay no closure
// or recomputation overhead. It allocates O(N^3) memory; callers should
// materialise only at benchmark-scale N.
func (in *Instance) Materialize() *Instance {
	n := in.N
	ini := make([]cost.Cost, n)
	for i := range ini {
		ini[i] = in.Init(i)
	}
	size := n + 1
	f := make([]cost.Cost, size*size*size)
	for i := 0; i <= n; i++ {
		for k := i + 1; k <= n; k++ {
			for j := k + 1; j <= n; j++ {
				f[(i*size+k)*size+j] = in.F(i, k, j)
			}
		}
	}
	return &Instance{
		N:       n,
		Name:    in.Name,
		Algebra: in.Algebra,
		Convex:  in.Convex,
		Canon:   in.Canon, // materialisation changes representation, not identity
		Init:    func(i int) cost.Cost { return ini[i] },
		F: func(i, k, j int) cost.Cost {
			return f[(i*size+k)*size+j]
		},
		FPanel: func(i, k, j0 int, dst []cost.Cost) {
			base := (i*size+k)*size + j0
			copy(dst, f[base:base+len(dst)])
		},
	}
}

// Table is the cost table over the node pairs (i,j), 0 <= i < j <= N —
// the only cells recurrence (*) reads or writes — and the common result
// representation shared by all solvers. It stores the packed upper
// triangle: row i holds its N−i cells j = i+1..N, rows back to back,
// after one leading pad slot that makes row i's origin
//
//	Rows().Org(i) = i·(N−1) − i(i−1)/2
//
// non-negative, so cell (i,j) lives at Rows().Org(i)+j and the row
// window Row(i) is indexed by the absolute column j. Consecutive origins
// differ by N−i−1: a column walk c(k,j), c(k+1,j), … is a first-order
// sequence whose step drops by one per row. A table holds
// 1 + N(N+1)/2 cells, half of the dense (N+1)² square.
type Table struct {
	N    int
	data []cost.Cost
}

// NewTable returns a table for objects 1..n with every entry Inf.
func NewTable(n int) *Table {
	t := &Table{N: n, data: make([]cost.Cost, 1+n*(n+1)/2)}
	for i := range t.data {
		t.data[i] = cost.Inf
	}
	return t
}

// Rows returns the table's row geometry — Rows{Step: N−1, Drop: 1} —
// in the form the algebra split primitives address it by.
func (t *Table) Rows() algebra.Rows { return algebra.Rows{Step: t.N - 1, Drop: 1} }

// At returns the entry for node (i,j); spans with j <= i are not
// stored and read Inf.
func (t *Table) At(i, j int) cost.Cost {
	if j <= i {
		return cost.Inf
	}
	return t.data[t.Rows().Org(i)+j]
}

// Data exposes the flat packed backing slice (cell (i,j), i < j, lives
// at Rows().Org(i)+j; data[0] is the pad slot, and data[1:] holds the
// cells in row-major order) — the kernel-facing escape hatch the bulk
// primitives operate on. Mutating it mutates the table.
func (t *Table) Data() []cost.Cost { return t.data }

// Row returns row i's window of Data, indexed by the absolute column:
// Row(i)[j] is cell (i,j) for i < j <= N. Its entries at j <= i belong
// to other rows (or the pad slot) and must not be used.
func (t *Table) Row(i int) []cost.Cost {
	o := t.Rows().Org(i)
	return t.data[o : o+t.N+1]
}

// Set stores v at node (i,j). Spans with j <= i have no storage: Set
// drops them, and At keeps reading Inf there.
func (t *Table) Set(i, j int, v cost.Cost) {
	if j > i {
		t.data[t.Rows().Org(i)+j] = v
	}
}

// Root returns c(0,N), the value the recurrence asks for.
func (t *Table) Root() cost.Cost { return t.At(0, t.N) }

// Equal reports whether two tables agree on every node (i,j), i < j,
// after normalising infinities.
func (t *Table) Equal(o *Table) bool {
	if t.N != o.N {
		return false
	}
	for c, v := range t.data[1:] {
		if cost.Norm(v) != cost.Norm(o.data[1+c]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{N: t.N, data: make([]cost.Cost, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Diff returns the node pairs on which the two tables disagree, up to max
// entries (max <= 0 means no limit). Useful for debugging solver mismatches.
func (t *Table) Diff(o *Table, max int) []string {
	var out []string
	if t.N != o.N {
		return []string{fmt.Sprintf("size mismatch: N=%d vs N=%d", t.N, o.N)}
	}
	for i := 0; i <= t.N; i++ {
		for j := i + 1; j <= t.N; j++ {
			a, b := cost.Norm(t.At(i, j)), cost.Norm(o.At(i, j))
			if a != b {
				out = append(out, fmt.Sprintf("(%d,%d): %d vs %d", i, j, a, b))
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}
