package blocked

import (
	"context"

	"sublineardp/internal/recurrence"
)

// SolveKYCtx runs the Knuth–Yao pruned blocked engine: the same tile
// graph as SolvePipeCtx, but every cell (i,j) scans only the candidate
// window
//
//	[ max(split(i,j-1), i+1) , split(i+1,j) ]
//
// that Knuth's split-monotonicity theorem bounds the optimal split
// into (closeTileKY). The pruned sweep needs no phase-A panel folds at
// all: each tile closes cell by cell with exact per-cell bounds, tiles
// in parallel as their predecessors finish. The windows telescope along
// every row and column, so total work is O(n^2) — identically
// seq.SolveKnuth's count — instead of O(n^3), while the smallest-k
// tie discipline keeps the value table AND the split matrix bitwise
// identical to the unpruned engine (and to the sequential reference):
// the smallest optimal split is always inside the window, and no
// candidate below it can tie.
//
// Splits are always recorded (they are the bounds), so the result is as
// if Options.RecordSplits were set. The instance must declare Convex
// and resolve to min-plus; anything else returns ErrNotConvex — the
// caller picked the pruned engine, and silently falling back to the
// O(n^3) path would misreport both work and intent.
func SolveKYCtx(ctx context.Context, in *recurrence.Instance, opt Options) (*Result, error) {
	res, errs := SolvePipeBatchCtx(ctx, []BatchItem{{In: in, KY: true}}, opt)
	return res[0], errs[0]
}

// SolveKY is SolveKYCtx without cancellation, panicking on ineligible
// instances — the test-side convenience mirroring Solve.
func SolveKY(in *recurrence.Instance, opt Options) *Result {
	res, err := SolveKYCtx(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	return res
}
