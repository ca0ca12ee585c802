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
	stride int
	data   []cost.Cost
	splits []int32
	f      algebra.SplitFunc
	fPanel func(i, k, j0 int, dst []cost.Cost)
	res    *Result
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

// newTileSolver allocates and seeds the cost table (and split matrix when
// recording): Zero-fill of the computed triangle for non-min-plus
// algebras, leaf diagonal from Init, splits initialised to -1.
func newTileSolver[S algebra.Kernel](sr S, in *recurrence.Instance, b int, record bool) *tileSolver[S] {
	n := in.N
	size := n + 1
	tbl := recurrence.NewTable(n)
	data, stride := tbl.Data(), tbl.Stride()
	// NewTable pre-fills with Inf — min-plus's Zero. Any other algebra
	// re-seeds exactly the cells the recurrence computes (i < j), keeping
	// the untouched lower triangle bitwise identical to the sequential
	// table.
	if zero := sr.Zero(); zero != cost.Inf {
		for i := 0; i < n; i++ {
			row := i * stride
			for j := i + 1; j <= n; j++ {
				data[row+j] = zero
			}
		}
	}
	for i := 0; i < n; i++ {
		data[i*stride+i+1] = in.Init(i)
	}

	// The split matrix shares the table's flat layout; -1 marks "no
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

	return &tileSolver[S]{
		sr: sr, n: n, b: b, size: size, nb: (size + b - 1) / b,
		stride: stride, data: data, splits: splits,
		f: algebra.SplitFunc(in.F), fPanel: in.FPanel, res: res,
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

// relaxRun folds split k into the m cells (i, j0..j0+m-1). With a bulk F
// (Instance.FPanel) the f run fills in one tight loop and the
// three-stream RelaxSplitRow consumes it; otherwise RelaxSplitPanel
// evaluates F per candidate inside the kernel body.
func (t *tileSolver[S]) relaxRun(fbuf []cost.Cost, i, k, j0, m int) {
	if m <= 0 {
		return
	}
	if t.fPanel != nil {
		t.fPanel(i, k, j0, fbuf[:m])
		if t.splits != nil {
			t.sr.RelaxSplitRowRec(t.data, t.splits, t.stride, i, k, j0, m, fbuf)
		} else {
			t.sr.RelaxSplitRow(t.data, t.stride, i, k, j0, m, fbuf)
		}
	} else if t.splits != nil {
		t.sr.RelaxSplitPanelRec(t.data, t.splits, t.stride, i, k, k+1, j0, m, t.f)
	} else {
		t.sr.RelaxSplitPanel(t.data, t.stride, i, k, k+1, j0, m, t.f)
	}
}

// relaxPanel folds the split run [ka,kb) into row i's cells j0..j0+m-1,
// recording when the run asked for it — the multi-split form the phase A
// sweep and the off-diagonal block-I fold share.
func (t *tileSolver[S]) relaxPanel(i, ka, kb, j0, m int) {
	if t.splits != nil {
		t.sr.RelaxSplitPanelRec(t.data, t.splits, t.stride, i, ka, kb, j0, m, t.f)
	} else {
		t.sr.RelaxSplitPanel(t.data, t.stride, i, ka, kb, j0, m, t.f)
	}
}

// foldRowInterior is the phase-A unit for one row i of tile (I, I+d),
// d >= 2: fold every strictly interior split block K (I < K < J), K
// ascending, into the row's block-J cells. Returns the candidate count
// folded — identical under every schedule because the unit is the whole
// row, never a partial K range.
func (t *tileSolver[S]) foldRowInterior(fbuf []cost.Cost, i, I, J int) int64 {
	j0, m := t.lo(J), t.hi(J)-t.lo(J)
	for K := I + 1; K < J; K++ {
		if t.fPanel != nil {
			for k := t.lo(K); k < t.hi(K); k++ {
				t.relaxRun(fbuf, i, k, j0, m)
			}
		} else {
			t.relaxPanel(i, t.lo(K), t.hi(K), j0, m)
		}
	}
	return int64(m) * int64(j0-t.hi(I))
}

// closeTile runs the in-tile closure of tile (I,J) in dependency order
// (rows bottom-up; within a row, splits left to right, each final cell
// immediately forward-relaxed into the rest of its row — always
// j-contiguous runs) and returns its candidate count. For I == J this is
// the triangular DP of the block; off-diagonal tiles first fold their
// block-I splits (the rows below, already final), then sweep the block-J
// splits forward — the strictly interior blocks were folded in by
// phase A. ctx is polled once per row: a cancelled close stops early
// with a partial tile, and the caller must discard the table.
func (t *tileSolver[S]) closeTile(ctx context.Context, fbuf []cost.Cost, I, J int) int64 {
	i0, i1 := t.lo(I), t.hi(I)
	j0, j1 := t.lo(J), t.hi(J)
	var work int64
	if I == J {
		for i := i1 - 2; i >= i0; i-- {
			if ctx.Err() != nil {
				return work
			}
			for k := i + 1; k < j1-1; k++ {
				m := j1 - k - 1
				t.relaxRun(fbuf, i, k, k+1, m)
				work += int64(m)
			}
		}
		return work
	}
	m := j1 - j0
	for i := i1 - 1; i >= i0; i-- {
		if ctx.Err() != nil {
			return work
		}
		if t.fPanel != nil {
			for k := i + 1; k < i1; k++ {
				t.relaxRun(fbuf, i, k, j0, m)
			}
		} else if i+1 < i1 {
			t.relaxPanel(i, i+1, i1, j0, m)
		}
		work += int64(i1-i-1) * int64(m)
		for k := j0; k < j1-1; k++ {
			mk := j1 - k - 1
			t.relaxRun(fbuf, i, k, k+1, mk)
			work += int64(mk)
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
	stride, splits := t.stride, t.splits
	var work int64
	for i := i1 - 1; i >= i0; i-- {
		js := j0
		if js < i+2 {
			js = i + 2 // skip the lower triangle and the leaf
		}
		for j := js; j < j1; j++ {
			klo := int(splits[i*stride+j-1])
			if klo < i+1 {
				klo = i + 1
			}
			khi := int(splits[(i+1)*stride+j])
			if khi < klo || khi > j-1 {
				khi = j - 1
			}
			t.sr.RelaxSplitCellRec(t.data, splits, stride, i, klo, khi+1, j, t.f)
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
