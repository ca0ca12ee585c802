package recurrence

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
)

// Chain is the second recurrence class of this repository: a 1D prefix
// dynamic program over indices 0..N with O(N)-candidate transitions,
//
//	c(0) = One
//	c(j) = Combine_{Lo(j) <= k < j} Extend(c(k), F(k,j))    1 <= j <= N
//
// evaluated over any registered idempotent semiring, exactly as the
// interval recurrence (*) is. Segmented least squares, weighted interval
// scheduling and subset-sum feasibility are all members (see
// internal/problems); internal/seq holds the sequential reference and
// internal/llp the asynchronous LLP engine.
//
// F values should stay strictly inside the cost sentinels (|F| well
// below cost.Inf): the bulk kernels assume finite transition weights, and
// the shipped constructors encode "no transition" as a finite penalty in
// the algebra's order rather than as the algebra's Zero. The zero Chain
// is not usable: construct chains via internal/problems or fill all
// fields.
type Chain struct {
	// N is the number of transition steps; the answer sought is c(N).
	N int

	// F gives the transition weight of extending prefix k to prefix j,
	// for 0 <= k < j <= N.
	F func(k, j int) cost.Cost

	// FRow, when non-nil, bulk-evaluates F over one k-run: it fills
	// dst[t] = F(k0+t, j) for 0 <= t < len(dst), with every k0+t < j.
	// It is semantically redundant with F and must agree with it on
	// every argument (Validate checks); the LLP engine folds candidate
	// runs through it to amortise the per-candidate closure call into
	// one tight loop, exactly as Instance.FPanel does for the blocked
	// interval engine.
	FRow func(j, k0 int, dst []cost.Cost)

	// Window, when positive, restricts the candidate set of index j to
	// k >= j-Window (Lo). Zero means the full prefix. Constructors whose
	// F is Zero-valued beyond some reach set it (subset sum's largest
	// item); it participates in the canonical encoding, so a windowed
	// chain never shares a cache entry with its full-prefix twin.
	Window int

	// Name labels the chain in experiment tables and error messages.
	Name string

	// Algebra names the idempotent semiring the recurrence is evaluated
	// over ("" means "min-plus"), with exactly Instance.Algebra's
	// resolution and canonical-encoding semantics.
	Algebra string

	// Canon, when non-nil, returns a stable, self-describing byte
	// encoding of the chain's defining parameters — the same contract as
	// Instance.Canon (injective per kind, kind tag first). Window and
	// Algebra are folded in by Canonical, not here.
	Canon func() []byte

	// Support, when non-nil, declares which candidates of index j can
	// win: it appends to dst, in ascending order, the k in [Lo(j), j)
	// whose candidates can change the fold under the chain's declared
	// algebra, and returns the extended slice. Every other candidate
	// must be dominated — strictly worse than some supported candidate
	// under a selective algebra (max-plus, min-plus), or the Combine
	// identity under bool-plan — so folding only the support yields the
	// same value and the same smallest-k predecessor as the full window
	// (Validate checks). Weighted interval scheduling supplies
	// {p(j), j−1}, subset sum {j − item}: O(1) and O(items) candidates
	// per index instead of O(window).
	//
	// The claim holds only under the declared algebra: an override
	// voids it and every engine folds the full window again (see
	// UsesSupport). Work and NumCandidates count the support. Support
	// must not allocate when dst has room and must be safe for
	// concurrent calls; the shipped constructors close over their own
	// chain to read Lo, so a Window set on that chain is honoured, while
	// a copy that changes Window must replace or clear Support.
	Support func(j int, dst []int32) []int32
}

// UsesSupport reports whether a solve under the algebra named alg may
// fold only the declared support: the chain has a Support and alg is
// the chain's declared algebra. Algebras are identified by name, as in
// cache keys; any other override voids the dominance claim.
func (c *Chain) UsesSupport(alg string) bool {
	return c.Support != nil && alg == algebra.ResolveName(nil, c.Algebra)
}

// Lo returns the smallest candidate index of position j under the
// chain's window: max(0, j-Window), or 0 when no window is set.
func (c *Chain) Lo(j int) int {
	if c.Window > 0 && j-c.Window > 0 {
		return j - c.Window
	}
	return 0
}

// Canonical returns the chain's stable canonical encoding and true, or
// nil and false when the chain has no Canon hook. Like
// Instance.Canonical it folds the algebra in as an "alg\x00<name>\x00"
// prefix (min-plus stays untagged); a positive Window is additionally
// folded as a "win\x00<uvarint>" prefix inside the algebra tag, so the
// same parameters under different windows or algebras can never share a
// cache entry. Canon encodings start with a varint kind-name length, so
// neither prefix can collide with an untagged encoding (no registered
// kind name is the 119 or 97 characters long a first byte of 'w' or 'a'
// would imply).
func (c *Chain) Canonical() ([]byte, bool) {
	if c.Canon == nil {
		return nil, false
	}
	b := c.Canon()
	if c.Window > 0 {
		tagged := make([]byte, 0, len(b)+4+binary.MaxVarintLen64)
		tagged = append(tagged, "win\x00"...)
		tagged = binary.AppendUvarint(tagged, uint64(c.Window))
		b = append(tagged, b...)
	}
	if c.Algebra != "" && c.Algebra != "min-plus" {
		tagged := make([]byte, 0, len(c.Algebra)+5+len(b))
		tagged = append(tagged, "alg\x00"...)
		tagged = append(tagged, c.Algebra...)
		tagged = append(tagged, 0)
		b = append(tagged, b...)
	}
	return b, true
}

// NumCandidates returns the number of (k,j) transition pairs one solve
// under the declared algebra folds — the support when the chain declares
// one, else every pair the window admits. It is the exact work of that
// solve, the quantity the LLP engine's work-efficiency is audited
// against.
func (c *Chain) NumCandidates() int64 {
	var total int64
	var sup []int32
	for j := 1; j <= c.N; j++ {
		if c.Support != nil {
			sup = c.Support(j, sup[:0])
			total += int64(len(sup))
		} else {
			total += int64(j - c.Lo(j))
		}
	}
	return total
}

// Validate checks the structural preconditions: N >= 1, F present, a
// nonnegative window, FRow agreeing with F on every admitted (k,j) pair,
// and — when the chain declares a Support — that every support is
// ascending inside [Lo(j), j) and that folding it under the declared
// algebra gives each index the full fold's value and predecessor. It
// evaluates every candidate, so it is O(N^2); intended for tests and
// constructor-time checks at small sizes.
func (c *Chain) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("recurrence: chain %q has N=%d, need >= 1", c.Name, c.N)
	}
	if c.F == nil {
		return errors.New("recurrence: chain F must be non-nil")
	}
	if c.Window < 0 {
		return fmt.Errorf("recurrence: chain %q has negative window %d", c.Name, c.Window)
	}
	var row []cost.Cost
	if c.FRow != nil {
		row = make([]cost.Cost, c.N)
	}
	for j := 1; j <= c.N; j++ {
		lo := c.Lo(j)
		if row != nil {
			c.FRow(j, lo, row[:j-lo])
		}
		for k := lo; k < j; k++ {
			v := c.F(k, j)
			if row != nil && row[k-lo] != v {
				return fmt.Errorf("recurrence: FRow(%d,%d)[%d] = %d disagrees with F(%d,%d) = %d",
					j, lo, k-lo, row[k-lo], k, j, v)
			}
		}
	}
	if c.Support != nil {
		return c.validateSupport()
	}
	return nil
}

// validateSupport checks the Support claim index by index: over the
// full fold's values c(0..j-1), the fold of j's support must reproduce
// the full fold's c(j) and its smallest-k predecessor bitwise.
func (c *Chain) validateSupport() error {
	k, err := algebra.Resolve(nil, c.Algebra)
	if err != nil {
		return fmt.Errorf("recurrence: chain %q declares a support: %w", c.Name, err)
	}
	values := make([]cost.Cost, c.N+1)
	values[0] = k.One()
	var sup []int32
	for j := 1; j <= c.N; j++ {
		lo := c.Lo(j)
		best, pred := k.Zero(), -1
		for kk := lo; kk < j; kk++ {
			v := k.Extend(values[kk], c.F(kk, j))
			if k.Better(v, best) {
				pred = kk
			}
			best = k.Combine(best, v)
		}
		sup = c.Support(j, sup[:0])
		sBest, sPred := k.Zero(), -1
		for i, k32 := range sup {
			kk := int(k32)
			if kk < lo || kk >= j || (i > 0 && k32 <= sup[i-1]) {
				return fmt.Errorf("recurrence: chain %q support of index %d is %v, want ascending k in [%d, %d)",
					c.Name, j, sup, lo, j)
			}
			v := k.Extend(values[kk], c.F(kk, j))
			if k.Better(v, sBest) {
				sPred = kk
			}
			sBest = k.Combine(sBest, v)
		}
		if sBest != best || sPred != pred {
			return fmt.Errorf("recurrence: chain %q support %v of index %d folds to c=%d via k=%d, the full window to c=%d via k=%d",
				c.Name, sup, j, sBest, sPred, best, pred)
		}
		values[j] = best
	}
	return nil
}

// Vector is the dense result of a chain solve: the values c(0)..c(N),
// the 1D analogue of Table. Root — c(N) — is the value the recurrence
// asks for.
type Vector struct {
	N    int
	data []cost.Cost
}

// PredPath walks a predecessor table back from its last index N: the
// witness breakpoint sequence 0 = k_0 < k_1 < ... < k_m = N, where
// preds[j] is the optimal predecessor of j. It fails when the walk meets
// an index without a predecessor below it.
func PredPath(preds []int32) ([]int, error) {
	n := len(preds) - 1
	path := []int{n}
	for j := n; j > 0; {
		p := int(preds[j])
		if p < 0 || p >= j {
			return nil, fmt.Errorf("recurrence: no recorded predecessor of c(%d)", j)
		}
		path = append(path, p)
		j = p
	}
	slices.Reverse(path)
	return path, nil
}

// NewVector returns a vector for indices 0..n with every entry Inf
// (engines overwrite every cell: c(0) with the algebra's One, the rest
// with fold results).
func NewVector(n int) *Vector {
	v := &Vector{N: n, data: make([]cost.Cost, n+1)}
	for i := range v.data {
		v.data[i] = cost.Inf
	}
	return v
}

// At returns c(j).
func (v *Vector) At(j int) cost.Cost { return v.data[j] }

// Set stores x at index j.
func (v *Vector) Set(j int, x cost.Cost) { v.data[j] = x }

// Data exposes the flat backing slice (index j holds c(j)) — the
// kernel-facing escape hatch the bulk primitives operate on. Mutating it
// mutates the vector.
func (v *Vector) Data() []cost.Cost { return v.data }

// Root returns c(N), the value the recurrence asks for.
func (v *Vector) Root() cost.Cost { return v.data[v.N] }

// Equal reports whether two vectors agree on every index after
// normalising infinities.
func (v *Vector) Equal(o *Vector) bool {
	if v.N != o.N {
		return false
	}
	for j := 0; j <= v.N; j++ {
		if cost.Norm(v.data[j]) != cost.Norm(o.data[j]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	c := &Vector{N: v.N, data: make([]cost.Cost, len(v.data))}
	copy(c.data, v.data)
	return c
}

// Diff returns the indices on which the two vectors disagree, up to max
// entries (max <= 0 means no limit).
func (v *Vector) Diff(o *Vector, max int) []string {
	if v.N != o.N {
		return []string{fmt.Sprintf("size mismatch: N=%d vs N=%d", v.N, o.N)}
	}
	var out []string
	for j := 0; j <= v.N; j++ {
		a, b := cost.Norm(v.data[j]), cost.Norm(o.data[j])
		if a != b {
			out = append(out, fmt.Sprintf("c(%d): %d vs %d", j, a, b))
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}
