package blocked

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// tileSolver is the tile decomposition every blocked solve runs on:
// table seeding, block-index geometry, and the relaxation units — the
// phase-A interior fold of one tile row, the in-tile closure, and its
// Knuth–Yao pruned twin. The serial reference (Solve) and the task
// graph (pipeline.go) call exactly these methods, and every write to a
// destination cell happens inside one unit with a fixed fold order (K
// ascending, then the block-I rows, then the forward block-J sweep), so
// their tables and recorded splits are bitwise identical by
// construction: schedules differ only in *when* a unit runs, never in
// what it folds or in what order a given cell sees its candidates.
type tileSolver[S algebra.Kernel] struct {
	sr     S
	n      int
	b      int // block edge
	size   int // n+1
	nb     int // block count
	rows   algebra.Rows
	data   []cost.Cost
	splits []int32
	f      algebra.SplitFunc
	// fPanel fills one F run for FoldSplitRow: the instance's bulk F, or
	// one filled from a declared closed form the kernel has no body for.
	fPanel func(i, k, j0 int, dst []cost.Cost)
	// product folds a product-form F with weights w inside the kernel;
	// bare folds with no F, and span is Extended onto each cell once,
	// when the cell is final (finish).
	product algebra.ProductFolder
	w       []cost.Cost
	bare    algebra.BareFolder
	span    func(i, j int) cost.Cost
	res     *Result
}

// tiles erases tileSolver's kernel type parameter, so the schedules are
// written once and one graph can mix items over different algebras. The
// per-unit interface call is noise next to a unit's O(B²) candidates.
type tiles interface {
	geometry() (b, nb int)
	lo(B int) int
	hi(B int) int
	result() *Result
	foldRowInterior(fbuf []cost.Cost, i, I, J int) int64
	closeTile(ctx context.Context, fbuf []cost.Cost, I, J int) int64
	closeTileKY(I, J int) int64
	charge(aWork, bWork int64)
}

// ErrNotConvex reports a Knuth–Yao solve of an instance that is not
// eligible for pruning: either it does not declare recurrence
// (*)'s convexity conditions (Instance.Convex) or the effective algebra
// is not min-plus — the only algebra the split-monotonicity theorem is
// stated for. The root layer wraps it in its ErrConvexityRequired
// sentinel.
var ErrNotConvex = errors.New("blocked: Knuth–Yao pruning requires a declared-convex min-plus instance")

// newTiles resolves the instance's effective algebra, gates a Knuth–Yao
// solve on its eligibility, and instantiates tileSolver at the concrete
// type of each shipped semiring so the bulk primitives dispatch to their
// specialised bodies; promoted third-party algebras (and kernels that
// merely name themselves min-plus) run through the interface. procs is
// the parallelism the auto tile edge targets.
func newTiles(in *recurrence.Instance, opt Options, procs int, ky bool) (tiles, error) {
	if in == nil || in.N < 1 {
		panic(fmt.Sprintf("blocked: invalid instance %+v", in))
	}
	k, err := algebra.Resolve(opt.Semiring, in.Algebra)
	if err != nil {
		return nil, err
	}
	if ky {
		if !in.Convex {
			return nil, fmt.Errorf("%w (instance %q does not declare Convex)", ErrNotConvex, in.Name)
		}
		if k.Name() != algebra.NameMinPlus {
			return nil, fmt.Errorf("%w (instance %q resolves to algebra %q)", ErrNotConvex, in.Name, k.Name())
		}
	}
	// Knuth–Yao always records: the splits are its pruning bounds.
	b, record := EffectiveTileSize(in.N, opt.TileSize, procs), opt.RecordSplits || ky
	switch sr := k.(type) {
	case algebra.MinPlus:
		return newTileSolver(sr, in, b, record), nil
	case algebra.MaxPlus:
		return newTileSolver(sr, in, b, record), nil
	case algebra.BoolPlan:
		return newTileSolver(sr, in, b, record), nil
	default:
		return newTileSolver[algebra.Kernel](k, in, b, record), nil
	}
}

// fbufPool recycles the f-run scratch (length >= B) across units and
// solves. It holds pointers so that a Put does not allocate.
var fbufPool = sync.Pool{New: func() any { return new([]cost.Cost) }}

// getFbuf returns pooled scratch of length at least b; hand it back with
// fbufPool.Put.
func getFbuf(b int) *[]cost.Cost {
	p := fbufPool.Get().(*[]cost.Cost)
	if len(*p) < b {
		*p = make([]cost.Cost, b)
	}
	return p
}

// newTileSolver allocates and seeds the packed cost table (and split
// matrix when recording): Zero-fill of every cell for non-min-plus
// algebras, leaf diagonal from Init, splits initialised to -1.
func newTileSolver[S algebra.Kernel](sr S, in *recurrence.Instance, b int, record bool) *tileSolver[S] {
	n := in.N
	size := n + 1
	tbl := recurrence.NewTable(n)
	data, rows := tbl.Data(), tbl.Rows()
	// NewTable pre-fills with Inf — min-plus's Zero. Any other algebra
	// re-seeds every cell (data[1:]; the pad slot stays Inf, as in the
	// sequential table).
	if zero := sr.Zero(); zero != cost.Inf {
		cells := data[1:]
		for c := range cells {
			cells[c] = zero
		}
	}
	for i := 0; i < n; i++ {
		data[rows.Org(i)+i+1] = in.Init(i)
	}

	// The split matrix shares the table's packed layout; -1 marks "no
	// candidate recorded". Recording is race-free for the same reason the
	// value writes are: every kernel call writes only its own destination
	// run, and parallel units own disjoint runs.
	var splits []int32
	if record {
		splits = make([]int32, len(data))
		for i := range splits {
			splits[i] = -1
		}
	}

	res := &Result{Table: tbl, TileSize: b, Splits: splits}
	res.Acct.ChargeUnit(int64(n)) // the leaf init step

	t := &tileSolver[S]{
		sr: sr, n: n, b: b, size: size, nb: (size + b - 1) / b,
		rows: rows, data: data, splits: splits,
		f: algebra.SplitFunc(in.F), fPanel: in.FPanel, res: res,
	}
	// A declared closed form of F runs inside the kernel when the kernel
	// has a body for it (for a product form, one whose products all stay
	// below Inf); otherwise the engine fills F runs from the declaration
	// for FoldSplitRow, as for an instance's own FPanel.
	switch {
	case in.FProduct != nil:
		if pf, ok := any(sr).(algebra.ProductFolder); ok && algebra.ProductFits(in.FProduct) {
			t.product, t.w = pf, in.FProduct
		} else {
			t.fPanel = productRun(in.FProduct)
		}
	case in.FSpan != nil:
		if bf, ok := any(sr).(algebra.BareFolder); ok {
			t.bare, t.span = bf, in.FSpan
		} else {
			t.fPanel = spanRun(in.FSpan)
		}
	}
	return t
}

// productRun fills F runs of a product-form F: dst[t] = w[i]·w[k]·w[j0+t].
func productRun(w []cost.Cost) func(i, k, j0 int, dst []cost.Cost) {
	return func(i, k, j0 int, dst []cost.Cost) {
		s := w[i] * w[k]
		for t, wj := range w[j0 : j0+len(dst)] {
			dst[t] = s * wj
		}
	}
}

// spanRun fills F runs of a k-independent F: dst[t] = W(i, j0+t).
func spanRun(span func(i, j int) cost.Cost) func(i, k, j0 int, dst []cost.Cost) {
	return func(i, k, j0 int, dst []cost.Cost) {
		for t := range dst {
			dst[t] = span(i, j0+t)
		}
	}
}

func (t *tileSolver[S]) geometry() (b, nb int) { return t.b, t.nb }
func (t *tileSolver[S]) result() *Result       { return t.res }
func (t *tileSolver[S]) lo(B int) int          { return B * t.b }

func (t *tileSolver[S]) hi(B int) int {
	v := (B + 1) * t.b
	if v > t.size {
		v = t.size
	}
	return v
}

// foldSplits folds the split run [ka,kb), k ascending, into the m cells
// (i, j0..j0+m-1), recording when the solve does. A declared closed
// form of F folds inside the kernel (two splits per pass). Otherwise,
// with a bulk F (fPanel) each split's F run fills in one tight loop and
// the three-stream FoldSplitRow consumes it; with neither,
// FoldSplitPanel evaluates F per candidate. A Zero left factor c(i,k)
// annihilates every candidate of its split, so every path skips the
// split before its F values are computed: tables and splits are
// unchanged, and an infeasible region (a bool-plan constraint wall)
// costs no F calls.
func (t *tileSolver[S]) foldSplits(fbuf []cost.Cost, i, ka, kb, j0, m int) {
	if m <= 0 || ka >= kb {
		return
	}
	switch {
	case t.product != nil:
		if t.splits != nil {
			t.product.FoldProductRunRec(t.data, t.splits, t.rows, i, ka, kb, j0, m, t.w)
		} else {
			t.product.FoldProductRun(t.data, t.rows, i, ka, kb, j0, m, t.w)
		}
	case t.bare != nil:
		if t.splits != nil {
			t.bare.FoldBareRunRec(t.data, t.splits, t.rows, i, ka, kb, j0, m)
		} else {
			t.bare.FoldBareRun(t.data, t.rows, i, ka, kb, j0, m)
		}
	case t.fPanel != nil:
		row := t.rows.Org(i)
		for k := ka; k < kb; k++ {
			if t.sr.IsZero(t.data[row+k]) {
				continue
			}
			t.fPanel(i, k, j0, fbuf[:m])
			if t.splits != nil {
				t.sr.FoldSplitRowRec(t.data, t.splits, t.rows, i, k, j0, m, fbuf)
			} else {
				t.sr.FoldSplitRow(t.data, t.rows, i, k, j0, m, fbuf)
			}
		}
	case t.splits != nil:
		t.sr.FoldSplitPanelRec(t.data, t.splits, t.rows, i, ka, kb, j0, m, t.f)
	default:
		t.sr.FoldSplitPanel(t.data, t.rows, i, ka, kb, j0, m, t.f)
	}
}

// finish Extends a k-independent F's weight W(i,j) onto cell (i,j), a
// non-leaf cell whose every candidate has just been folded, before the
// cell is first read as a left factor: Combine_k(W ⊗ c(i,k) ⊗ c(k,j)) =
// W ⊗ Combine_k(c(i,k) ⊗ c(k,j)). A cell the weight leaves at Zero (a
// ban, or a min-plus sum at or past Inf) holds no candidate, so its
// recorded split resets to -1, as the sequential DP records it.
func (t *tileSolver[S]) finish(i, j int) {
	if t.span == nil || j < i+2 {
		return
	}
	c := t.rows.Org(i) + j
	v := t.sr.Norm(t.sr.Extend(t.span(i, j), t.data[c]))
	t.data[c] = v
	if t.splits != nil && t.sr.IsZero(v) {
		t.splits[c] = -1
	}
}

// foldRowInterior is the phase-A unit for one row i of tile (I, I+d),
// d >= 2: fold every split of the strictly interior blocks I < K < J, k
// ascending, into the row's block-J cells. Returns the candidate count
// folded — identical under every schedule because the unit is the whole
// row, never a partial K range.
func (t *tileSolver[S]) foldRowInterior(fbuf []cost.Cost, i, I, J int) int64 {
	j0, m := t.lo(J), t.hi(J)-t.lo(J)
	t.foldSplits(fbuf, i, t.hi(I), j0, j0, m)
	return int64(m) * int64(j0-t.hi(I))
}

// closeTile runs the in-tile closure of tile (I,J) in dependency order
// (rows bottom-up; within a row, splits left to right, each cell
// finished the moment it is final and immediately forward-relaxed into
// the rest of its row — always j-contiguous runs) and returns its
// candidate count. For I == J this is the triangular DP of the block;
// off-diagonal tiles first fold their block-I splits (the rows below,
// already final), then sweep the block-J splits forward — the strictly
// interior blocks were folded in by phase A. ctx is polled once per
// row: a cancelled close stops early with a partial tile, and the
// caller must discard the table.
func (t *tileSolver[S]) closeTile(ctx context.Context, fbuf []cost.Cost, I, J int) int64 {
	i0, i1 := t.lo(I), t.hi(I)
	j0, j1 := t.lo(J), t.hi(J)
	var work int64
	for i := i1 - 1; i >= i0; i-- {
		if ctx.Err() != nil {
			return work
		}
		k0 := j0
		if I == J {
			k0 = i + 1
		} else {
			t.foldSplits(fbuf, i, i+1, i1, j0, j1-j0)
			work += int64(i1-i-1) * int64(j1-j0)
		}
		for k := k0; k < j1; k++ {
			t.finish(i, k)
			if m := j1 - k - 1; m > 0 {
				t.foldSplits(fbuf, i, k, k+1, k+1, m)
				work += int64(m)
			}
		}
	}
	return work
}

// closeTileKY is the Knuth–Yao twin of closeTile: it closes tile (I,J)
// cell by cell, each cell (i,j) scanning only the candidate window
//
//	[ max(split(i,j-1), i+1) , split(i+1,j) ]
//
// that Knuth's split-monotonicity theorem bounds the optimal split
// into, and returns the candidate count. No phase A precedes it: with
// O(1)-wide windows there are no interior panels left to fold. Both
// neighbour splits are final when the cell closes — they lie in tile
// (I,J-1), in tile (I+1,J), on a lower row of this tile, or earlier in
// this row — so the unpruned tile's dependency edges cover it. The
// bound logic mirrors seq.SolveKnuth line for line, with one
// representational shim: seq seeds leaf splits with the sentinel i
// where the matrix here keeps -1 — both clamp to the same effective
// window (lo -> i+1; hi < lo -> j-1 = i+1 on span-2 cells), so the
// counted work is identical.
func (t *tileSolver[S]) closeTileKY(I, J int) int64 {
	i0, i1 := t.lo(I), t.hi(I)
	j0, j1 := t.lo(J), t.hi(J)
	rows, splits := t.rows, t.splits
	var work int64
	for i := i1 - 1; i >= i0; i-- {
		js := j0
		if js < i+2 {
			js = i + 2 // skip the spans below the diagonal and the leaf
		}
		// Row i's and row i+1's split windows, indexed by the column.
		oi, oi1 := rows.Org(i), rows.Org(i+1)
		for j := js; j < j1; j++ {
			klo := int(splits[oi+j-1])
			if klo < i+1 {
				klo = i + 1
			}
			khi := int(splits[oi1+j])
			if khi < klo || khi > j-1 {
				khi = j - 1
			}
			t.sr.FoldSplitCellRec(t.data, splits, rows, i, klo, khi+1, j, t.f)
			work += int64(khi - klo + 1)
		}
	}
	return work
}

// charge writes a finished solve's work ledger: the leaf units (charged
// at seeding) plus one phase-A fold and one closure fold for the whole
// solve, whatever the schedule — no schedule has per-diagonal fences to
// charge. The in-tile dependency chain is the O(B) row/column walk, the
// same for the pruned closure: windows shrink work, not depth.
func (t *tileSolver[S]) charge(aWork, bWork int64) {
	b, nb := int64(t.b), t.nb
	lastLen := int64(t.hi(nb-1) - t.lo(nb-1))
	var aCells, bCells int64
	for d := 0; d < nb; d++ {
		if d >= 2 {
			aCells += b * (int64(nb-d-1)*b + lastLen)
		}
		bCells += closedCells(d, t.b, nb, t.size)
	}
	if aWork > 0 {
		t.res.Acct.ChargeReduce(aCells, int64(nb-2)*b, aWork)
	}
	if bWork > 0 {
		t.res.Acct.ChargeReduce(bCells, 2*b, bWork)
	}
}
