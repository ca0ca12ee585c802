// Package blocked implements the work-efficient blocked parallel engine
// for recurrence (*): the c(i,j) triangle is partitioned into B×B tiles
// scheduled as a dependency graph, so the whole solve costs the
// sequential O(n^3) work and O(n^2) memory — one packed cost table, no
// partial-weight arrays — while exposing (n/B)^2-way parallelism.
//
// This is the engine the paper's HLV scheme is missing at scale: HLV
// buys O(sqrt n · log n) parallel *time* by paying O(n^4) work and
// memory (the dense partial-weight array caps it at n=64 on commodity
// memory), whereas the blocked schedule follows the work-efficient
// divide-and-conquer line (Galil–Park blocking; arXiv:2404.16314's
// near-work-optimal parallel DP; arXiv:2008.01938's block-wavefront
// pipeline): depth O((n/B)·(B + log n)) with work exactly O(n^3).
// n = 1024–4096 solves comfortably where hlv-dense cannot even allocate
// n = 256.
//
// # Tiles
//
// Indices 0..n are split into nb = ceil((n+1)/B) blocks. Tile (I,J)
// holds the cells (i,j) with i in block I, j in block J. A cell's
// candidates k lie in blocks I..J, so tile (I,J) depends only on tiles
// (I,K) and (K,J) with strictly smaller block distance. Each tile runs
// two kinds of unit:
//
//   - phase A (J−I >= 2): off-tile accumulation. For every tile row i,
//     one split-kernel call folds the whole k-run of the strictly
//     interior blocks I < K < J into the row — a GEMM-shaped sweep whose
//     three streams (destination row, left factors, right row) are
//     contiguous or scalar, which is what makes the engine faster per
//     candidate than the column-striding sequential scan.
//   - phase B: in-tile closure. The tile serialises its own cells in
//     dependency order (rows bottom-up, splits left to right) and applies
//     every in-tile split as a forward j-run relaxation, so even the
//     closure sweeps contiguous panels.
//
// The Knuth–Yao variant (SolveKYCtx) skips phase A and closes each tile
// cell by cell under split-monotonicity windows.
//
// # Schedules
//
// There is one parallel schedule, the task graph of pipeline.go: every
// tile carries an in-degree counter and its units run the moment their
// inputs are final, with no barrier anywhere, and several solves can
// share one graph. Solve is the serial reference: the same units in
// diagonal order on the calling goroutine.
//
// An instance that declares a closed form of F folds it inside the
// kernel: a product form as s·w[j] with s = w[i]·w[k] in a register
// (algebra.ProductFolder), a k-independent form not at all, its weight
// Extended onto each cell once when the cell is final
// (algebra.BareFolder); both bodies fold two splits per pass. Otherwise
// the bulk primitives consume a pre-evaluated f run when the instance
// provides a bulk form (Instance.FPanel → FoldSplitRow), or evaluate
// the instance's F inside the kernel body (FoldSplitPanel). Either way
// every registered algebra runs at one indirect call per panel and the
// min-plus loops stay scalar-fast. Results are bitwise identical to the
// sequential DP under every lawful algebra: candidates form the same
// multiset and Combine is associative, commutative and idempotent.
//
// TileSize is the engine's processor knob: B ~ n/(4p) (the auto
// default) gives p workers about four ready tiles each, larger B trades
// parallelism for fewer, longer tasks and longer contiguous panels.
package blocked

import (
	"context"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/pram"
	"sublineardp/internal/recurrence"
)

// DefaultTileSize is the floor of the auto-sized block edge: large
// enough that panel dispatch overhead vanishes and a tile pair (two
// ~32 KB squares) stays cache-resident.
const DefaultTileSize = 64

// maxAutoTileSize caps the auto-sized block edge: past ~512 longer
// panels gain nothing while the task count is already tiny.
const maxAutoTileSize = 512

// Options configures a blocked solve. The zero value is a valid default
// configuration.
type Options struct {
	// Workers is the task graph's drain width (0 = pool width).
	Workers int
	// Pool is the persistent worker pool the task graph drains on (nil =
	// the process-wide shared pool).
	Pool *parutil.Pool
	// TileSize is the block edge B. Non-positive values select the auto
	// size (~(n+1)/(4·procs) clamped to [DefaultTileSize,
	// maxAutoTileSize] — see EffectiveTileSize); explicit values are
	// capped at n+1 (one tile).
	TileSize int
	// Semiring overrides the algebra the recurrence is evaluated over
	// (nil = the instance's declared algebra, min-plus by default).
	Semiring algebra.Semiring
	// RecordSplits also fills Result.Splits with the optimal split point
	// of every computed span — the O(n) root-to-leaf reconstruction
	// input, and the prerequisite for Knuth–Yao candidate pruning. Costs
	// one packed int32 matrix (2·n(n+1) bytes, half the cost table) and
	// one compare+store per candidate; the value table stays bitwise
	// identical to a non-recording run.
	RecordSplits bool
}

// Result is a blocked solve: the converged cost table, PRAM accounting,
// and the effective block edge.
type Result struct {
	Table *recurrence.Table
	Acct  pram.Accounting
	// TileSize echoes the effective block edge B of the run.
	TileSize int
	// Splits, filled when Options.RecordSplits is set, is the int32 split
	// matrix parallel to the table (same packed layout):
	// Splits[Table.Rows().Org(i)+j] is the smallest k whose candidate
	// achieves c(i,j), i < j, or -1 for leaves and spans no candidate
	// reaches — exactly the sequential reference's smallest-k choice,
	// under every algebra.
	Splits []int32
	// Stats is the solve's scheduler observability snapshot: executed
	// graph tasks and drain-worker idle nanoseconds (zero for the serial
	// Solve, which runs no scheduler). For an overlapped batch every
	// Result carries the shared scheduler's view.
	Stats parutil.StatsView
}

// Cost returns c(0,n).
func (r *Result) Cost() cost.Cost { return r.Table.Root() }

// Split returns the recorded optimal split of span (i,j), or -1 when the
// span is a leaf, empty (j <= i), unreachable, or splits were not
// recorded.
func (r *Result) Split(i, j int) int {
	if r.Splits == nil || j <= i {
		return -1
	}
	return int(r.Splits[r.Table.Rows().Org(i)+j])
}

// EffectiveTileSize resolves the block edge a solve of size n runs
// with on a machine with procs usable processors. An explicit tile
// wins; otherwise B targets about four ready tiles per processor
// ((n+1)/(4·procs) — enough tiles to balance, few enough tasks and
// long enough contiguous panels), clamped to
// [DefaultTileSize, maxAutoTileSize]. On few cores this grows B with n
// (locality is all that matters); on wide machines it shrinks toward
// the floor to keep every worker fed.
func EffectiveTileSize(n, tile, procs int) int {
	b := tile
	if b <= 0 {
		if procs < 1 {
			procs = 1
		}
		b = (n + 1) / (4 * procs)
		if b < DefaultTileSize {
			b = DefaultTileSize
		}
		if b > maxAutoTileSize {
			b = maxAutoTileSize
		}
	}
	if b > n+1 {
		b = n + 1
	}
	return b
}

// Solve is the serial reference of the tile engines: for each block
// diagonal, for each tile, phase A on each row and then the closure, all
// on the calling goroutine. It has no pool and no barriers: it ignores
// Options.Workers and Options.Pool, and sizes the auto tile edge for one
// processor. Its table and recorded splits equal the sequential DP's
// bitwise, as do the parallel engines'; the point of keeping it is a
// reference that shares no scheduler code with them. It panics on the
// only reachable error (an unregistered instance algebra).
func Solve(in *recurrence.Instance, opt Options) *Result {
	res, err := SolveCtx(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// SolveCtx is Solve with cooperative cancellation, polled once per tile
// and once per closure row.
func SolveCtx(ctx context.Context, in *recurrence.Instance, opt Options) (*Result, error) {
	ts, err := newTiles(in, opt, 1, false)
	if err != nil {
		return nil, err
	}
	b, nb := ts.geometry()
	fbuf := make([]cost.Cost, b)
	var aWork, bWork int64
	for d := 0; d < nb; d++ {
		for I := 0; I+d < nb; I++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if d >= 2 {
				for i := ts.lo(I); i < ts.hi(I); i++ {
					aWork += ts.foldRowInterior(fbuf, i, I, I+d)
				}
			}
			bWork += ts.closeTile(ctx, fbuf, I, I+d)
		}
	}
	// A cancel during the last close leaves a partial table.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ts.charge(aWork, bWork)
	return ts.result(), nil
}

// closedCells counts the cells the closure relaxes on block-diagonal d —
// tile areas minus the leaf and empty spans the closure skips.
func closedCells(d, b, nb, size int) int64 {
	lastLen := int64(size - (nb-1)*b)
	var cells int64
	switch {
	case d == 0:
		full := int64(b)*(int64(b)-1)/2 - (int64(b) - 1)
		cells = int64(nb-1)*full + lastLen*(lastLen-1)/2 - (lastLen - 1)
	case d == 1:
		// One corner cell per tile is the leaf (i1-1, i1).
		cells = int64(nb-d-1)*(int64(b)*int64(b)-1) + int64(b)*lastLen - 1
	default:
		cells = int64(nb-d-1)*int64(b)*int64(b) + int64(b)*lastLen
	}
	return cells
}
