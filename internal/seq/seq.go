// Package seq provides the sequential baselines: the classic O(n^3)
// dynamic program for recurrence (*) (the "best sequential algorithm" the
// paper compares processor-time products against) and Knuth's O(n^2)
// speedup for instances satisfying his monotonicity conditions (optimal
// binary search trees). Both reconstruct the optimal parenthesization
// tree, which the pebbling game and the experiment harness consume.
package seq

import (
	"context"
	"fmt"

	"sublineardp/internal/algebra"
	"sublineardp/internal/btree"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// Result carries a sequential solve: the full cost table, the split table
// for reconstruction, and the exact number of candidate evaluations (the
// work W used in processor-time product comparisons).
type Result struct {
	Table  *recurrence.Table
	splits []int32 // split[k] choice per (i,j); -1 for leaves
	N      int
	Work   int64
	zero   cost.Cost // the algebra's "no solution" value, for Tree gating
}

// Solve runs the O(n^3) dynamic program under the instance's declared
// algebra. Ties between splits resolve to the smallest k, making the
// reconstruction deterministic.
func Solve(in *recurrence.Instance) *Result {
	res, err := SolveCtx(context.Background(), in)
	if err != nil {
		// Only reachable for an unregistered instance algebra; the
		// background context never cancels.
		panic(err)
	}
	return res
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// once per final table cell (O(n^2) checks against O(n^3) work, so
// cancellation is prompt even when Init/F are expensive callbacks). A
// cancelled or expired context aborts with a nil Result and ctx.Err().
func SolveCtx(ctx context.Context, in *recurrence.Instance) (*Result, error) {
	return SolveSemiringCtx(ctx, in, nil)
}

// SolveSemiringCtx is SolveCtx under an explicit algebra override
// (nil = the instance's declared algebra, min-plus by default). The
// shipped algebras run the sweep instantiated at their concrete type;
// any other algebra runs it through the Kernel interface.
func SolveSemiringCtx(ctx context.Context, in *recurrence.Instance, sr algebra.Semiring) (*Result, error) {
	k, err := algebra.Resolve(sr, in.Algebra)
	if err != nil {
		return nil, err
	}
	n := in.N
	size := n + 1
	res := &Result{
		Table:  recurrence.NewTable(n),
		splits: make([]int32, size*size),
		N:      n,
		zero:   k.Zero(),
	}
	for i := range res.splits { //lint:allow ctxpoll O(n^2) split-matrix sentinel fill before the polled sweep
		res.splits[i] = -1
	}
	for i := 0; i < n; i++ { //lint:allow ctxpoll O(n) Init fill before the polled sweep
		res.Table.Set(i, i+1, in.Init(i))
	}
	switch k := k.(type) {
	case algebra.MinPlus:
		err = sweep(ctx, in, res, k)
	case algebra.MaxPlus:
		err = sweep(ctx, in, res, k)
	case algebra.BoolPlan:
		err = sweep(ctx, in, res, k)
	default:
		err = sweep[algebra.Kernel](ctx, in, res, k)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sweep fills the table row by row, bottom-up. Within row i, k runs
// ascending: cell (i,k) is final once every smaller split has been
// folded into it, and is then forward-relaxed with row k (final, being
// lower) into the rest of row i. So every cell still sees its
// candidates in ascending k, and strict Better keeps the smallest k of
// a tie.
func sweep[K algebra.Kernel](ctx context.Context, in *recurrence.Instance, res *Result, sr K) error {
	n := in.N
	size := n + 1
	data, zero := res.Table.Data(), sr.Zero()
	for i := n - 2; i >= 0; i-- {
		ri, si := data[i*size:(i+1)*size], res.splits[i*size:(i+1)*size]
		for j := i + 2; j <= n; j++ {
			ri[j] = zero
		}
		for k := i + 1; k < n; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			cik, rk := ri[k], data[k*size:(k+1)*size]
			for j := k + 1; j <= n; j++ {
				v := sr.Extend3(in.F(i, k, j), cik, rk[j]) //lint:allow bulkonly the engine-independent reference scan every bulk kernel is conformance-pinned against
				if sr.Better(v, ri[j]) {
					ri[j] = v
					si[j] = int32(k)
				}
			}
			res.Work += int64(n - k)
		}
	}
	return nil
}

// Cost returns the optimal value c(0,n).
func (r *Result) Cost() cost.Cost { return r.Table.Root() }

// Feasible reports that the root holds a solution — its value is not the
// algebra's Zero. For min-plus this is the classic "optimum is finite".
func (r *Result) Feasible() bool {
	root := r.Cost()
	if r.zero == cost.Inf {
		return !cost.IsInf(root)
	}
	return root != r.zero
}

// Split returns the optimal split point recorded for node (i,j), or -1
// for leaves and never-computed spans.
func (r *Result) Split(i, j int) int {
	return int(r.splits[i*(r.N+1)+j])
}

// Tree reconstructs the optimal parenthesization tree from the split
// table. It panics if the table holds no solution — the root is the
// algebra's Zero (Inf for min-plus), which cannot happen for valid
// min-plus instances but is an ordinary outcome for e.g. an infeasible
// bool-plan family; call Feasible first for those.
func (r *Result) Tree() *btree.Tree {
	if !r.Feasible() {
		panic("seq: no optimum to reconstruct")
	}
	return btree.New(r.N, func(i, j int) int {
		k := r.Split(i, j)
		if k < 0 {
			panic(fmt.Sprintf("seq: missing split for span (%d,%d)", i, j))
		}
		return k
	})
}

// SolveKnuth runs Knuth's O(n^2) variant, which restricts the split search
// for (i,j) to the range [split(i,j-1), split(i+1,j)]. The optimisation is
// only valid for instances satisfying the quadrangle inequality and
// monotonicity (OBST-style f that depends on (i,j) only) under the
// min-plus algebra — it panics on instances declaring any other algebra;
// callers are responsible for using it on such instances, and tests
// verify agreement with Solve on them.
func SolveKnuth(in *recurrence.Instance) *Result {
	if in.Algebra != "" && in.Algebra != algebra.NameMinPlus {
		panic(fmt.Sprintf("seq: SolveKnuth requires min-plus, instance %q declares %q", in.Name, in.Algebra))
	}
	n := in.N
	size := n + 1
	res := &Result{
		Table:  recurrence.NewTable(n),
		splits: make([]int32, size*size),
		N:      n,
		zero:   cost.Inf,
	}
	for i := range res.splits {
		res.splits[i] = -1
	}
	for i := 0; i < n; i++ {
		res.Table.Set(i, i+1, in.Init(i))
		// Treat the leaf's "split" as its midpoint so the span-2 windows
		// below are well defined.
		res.splits[i*size+i+1] = int32(i) // lower bound sentinel: k >= i+1 enforced below
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span <= n; i++ {
			j := i + span
			lo := int(res.splits[i*size+j-1])
			hi := int(res.splits[(i+1)*size+j])
			if lo < i+1 {
				lo = i + 1
			}
			if hi < lo || hi > j-1 {
				hi = j - 1
			}
			best := cost.Inf
			bestK := int32(-1)
			for k := lo; k <= hi; k++ {
				v := cost.Add3(in.F(i, k, j), res.Table.At(i, k), res.Table.At(k, j)) //lint:allow bulkonly Knuth window scan: per-candidate F over O(n^2) total candidates is the algorithm being charged
				if v < best {
					best = v
					bestK = int32(k)
				}
			}
			res.Work += int64(hi - lo + 1)
			res.Table.Set(i, j, best)
			res.splits[i*size+j] = bestK
		}
	}
	return res
}

// BruteForce computes c(0,n) by exhaustive recursion with memoisation
// over all parenthesizations, under the instance's declared algebra.
// Exponential bookkeeping but entirely independent of the DP
// formulation; tests use it at tiny n as ground truth for everything
// else.
func BruteForce(in *recurrence.Instance) cost.Cost {
	k, err := algebra.Resolve(nil, in.Algebra)
	if err != nil {
		panic(err)
	}
	n := in.N
	size := n + 1
	memo := make([]cost.Cost, size*size)
	seen := make([]bool, size*size)
	var rec func(i, j int) cost.Cost
	rec = func(i, j int) cost.Cost {
		if seen[i*size+j] {
			return memo[i*size+j]
		}
		var v cost.Cost
		if j == i+1 {
			v = in.Init(i)
		} else {
			v = k.Zero()
			for kk := i + 1; kk < j; kk++ {
				v = k.Combine(v, k.Extend3(in.F(i, kk, j), rec(i, kk), rec(kk, j))) //lint:allow bulkonly brute-force ground truth for tiny n; test-only by construction
			}
		}
		memo[i*size+j] = v
		seen[i*size+j] = true
		return v
	}
	return rec(0, n)
}
