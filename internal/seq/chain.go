package seq

import (
	"context"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// ChainResult carries a sequential chain solve: the full value vector,
// the predecessor table for witness reconstruction, and the exact number
// of candidate evaluations (the work the LLP engine's work-efficiency is
// audited against).
type ChainResult struct {
	Values *recurrence.Vector
	preds  []int32 // best predecessor per index; -1 for c(0) and unreached cells
	N      int
	Work   int64
	zero   cost.Cost
}

// SolveChain runs the O(sum of window sizes) prefix dynamic program
// under the chain's declared algebra, folding every candidate the window
// admits even when the chain declares a Support — the dense reference
// the support claim is checked against. Ties between predecessors
// resolve to the smallest k, making the reconstruction deterministic.
func SolveChain(c *recurrence.Chain) *ChainResult {
	d := *c
	d.Support = nil
	res, err := SolveChainCtx(context.Background(), &d)
	if err != nil {
		// Only reachable for an unregistered chain algebra; the
		// background context never cancels.
		panic(err)
	}
	return res
}

// SolveChainCtx is the sequential scan under the chain's declared
// algebra with cooperative cancellation, checked once per index. Unlike
// SolveChain it folds only the declared Support when the chain has one.
// A cancelled or expired context aborts with a nil ChainResult and
// ctx.Err().
func SolveChainCtx(ctx context.Context, c *recurrence.Chain) (*ChainResult, error) {
	return SolveChainSemiringCtx(ctx, c, nil)
}

// SolveChainSemiringCtx is SolveChainCtx under an explicit algebra
// override (nil = the chain's declared algebra, min-plus by default).
// Each index folds its candidates in ascending k order through the
// kernel's Combine/Extend — the fold the LLP engine's bulk ReduceRelax
// runs — so the two engines agree bitwise under any lawful algebra with
// finite transition weights. The fold is only the chain's Support when
// the override leaves the declared algebra in place
// (Chain.UsesSupport); otherwise it is the full window, its transition
// weights bulk-evaluated through FRow into one scratch row.
func SolveChainSemiringCtx(ctx context.Context, c *recurrence.Chain, sr algebra.Semiring) (*ChainResult, error) {
	k, err := algebra.Resolve(sr, c.Algebra)
	if err != nil {
		return nil, err
	}
	n := c.N
	res := &ChainResult{
		Values: recurrence.NewVector(n),
		preds:  make([]int32, n+1),
		N:      n,
		zero:   k.Zero(),
	}
	values, preds := res.Values.Data(), res.preds
	values[0] = k.One()
	preds[0] = -1
	sparse := c.UsesSupport(algebra.ResolveName(sr, c.Algebra))
	var row []cost.Cost
	var sup []int32
	if !sparse {
		row = make([]cost.Cost, n-c.Lo(n)) // the widest window is the last
	}
	for j := 1; j <= n; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best, bestK := k.Zero(), int32(-1)
		if sparse {
			sup = c.Support(j, sup[:0])
			for _, k32 := range sup {
				v := k.Extend(values[k32], c.F(int(k32), j)) //lint:allow bulkonly the declared support is a few scattered k per index, not a run FRow could bulk-evaluate
				if k.Better(v, best) {
					bestK = k32
				}
				best = k.Combine(best, v)
			}
			res.Work += int64(len(sup))
		} else {
			lo := c.Lo(j)
			r := row[:j-lo]
			if c.FRow != nil {
				c.FRow(j, lo, r)
			} else {
				for t := range r {
					r[t] = c.F(lo+t, j) //lint:allow bulkonly per-candidate fallback when the chain supplies no FRow
				}
			}
			best, bestK = algebra.FoldRun(k, values[lo:j], r, lo, best, bestK)
			res.Work += int64(len(r))
		}
		values[j] = best
		preds[j] = bestK
	}
	return res, nil
}

// Cost returns the optimal value c(N).
func (r *ChainResult) Cost() cost.Cost { return r.Values.Root() }

// Feasible reports that c(N) holds a solution — its value is not the
// algebra's Zero.
func (r *ChainResult) Feasible() bool {
	root := r.Cost()
	if r.zero == cost.Inf {
		return !cost.IsInf(root)
	}
	return root != r.zero
}

// Pred returns the optimal predecessor recorded for index j, or -1 for
// index 0 and indices no candidate realised.
func (r *ChainResult) Pred(j int) int { return int(r.preds[j]) }

// Preds returns the predecessor table: entry j is Pred(j). The slice is
// the result's own; callers must not modify it.
func (r *ChainResult) Preds() []int32 { return r.preds }

// Path reconstructs the witness breakpoint sequence 0 = k_0 < k_1 < ...
// < k_m = N by walking the predecessor table back from N. It panics when
// the chain holds no solution (call Feasible first) or the predecessor
// table is broken mid-walk.
func (r *ChainResult) Path() []int {
	if !r.Feasible() {
		panic("seq: no chain optimum to reconstruct")
	}
	path, err := recurrence.PredPath(r.preds)
	if err != nil {
		panic(err)
	}
	return path
}

// BruteForceChain computes c(N) by exhaustive recursion over all
// breakpoint sequences under the chain's declared algebra — exponential,
// independent of the DP sweep order, the tiny-n ground truth for the
// chain engines.
func BruteForceChain(c *recurrence.Chain) cost.Cost {
	k, err := algebra.Resolve(nil, c.Algebra)
	if err != nil {
		panic(err)
	}
	var rec func(j int) cost.Cost
	rec = func(j int) cost.Cost {
		if j == 0 {
			return k.One()
		}
		best := k.Zero()
		for kk := c.Lo(j); kk < j; kk++ {
			best = k.Combine(best, k.Extend(rec(kk), c.F(kk, j))) //lint:allow bulkonly brute-force recursive ground truth for tiny n; test-only by construction
		}
		return best
	}
	return rec(c.N)
}
