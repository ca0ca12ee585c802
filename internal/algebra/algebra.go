// Package algebra is the value layer of every solver in this repository:
// the idempotent-semiring contract the recurrence
//
//	c(i,j) = Combine_{i<k<j} Extend(f(i,k,j), Extend(c(i,k), c(k,j)))
//
// is solved over, together with the three shipped algebras and the bulk
// kernel primitives the performance engines dispatch their hot loops
// onto.
//
// Nothing in the paper's a-activate / a-square / a-pebble scheme uses
// properties of (min, +) beyond: Combine is an idempotent, commutative,
// associative selection; Extend is associative, distributes over Combine,
// and is monotone with respect to the order Combine induces. Under those
// axioms every intermediate estimate is the Extend-accumulation of some
// feasible partial tree, estimates move monotonically toward the optimum,
// and the pebbling-game bound of 2*ceil(sqrt(n)) iterations carries over
// verbatim. CheckLaws verifies the axioms mechanically; Register refuses
// algebras that fail them.
//
// Two interfaces split the contract:
//
//   - Semiring is the scalar algebra third parties implement: Combine,
//     Extend, the two identities, and a name. Register validates the
//     axioms and Promote derives everything else.
//   - Kernel is the engine-facing contract: the scalar algebra plus
//     comparison/normalisation helpers and the bulk primitives
//     (RelaxPanel, ReduceRelax, ...) the cache-tiled kernels call. The
//     shipped algebras implement Kernel directly with specialised loops;
//     promoted third-party semirings fall back to generic loops.
//
// The bulk primitives exist because Go's compiler (as of go1.24) does not
// devirtualise method calls on generic type parameters: a per-candidate
// sr.Extend in an O(n^2.5)-candidate loop costs a dictionary-indirect
// call each. The primitives amortise one indirect call over a whole panel
// of candidates, and their per-algebra bodies compile to exactly the
// scalar loops the pre-generic min-plus kernels ran — which is how the
// generic core stays within benchmark noise of the specialised one
// (BenchmarkE13RuntimeServing pins it).
//
// Non-idempotent semirings — notably counting parenthesizations with
// (+, *) — are rejected by Register: iterating to a fixed point
// re-Combines the same tree many times, which only an idempotent Combine
// tolerates.
package algebra

import (
	"math"

	"sublineardp/internal/cost"
)

// Registry names of the shipped algebras.
const (
	NameMinPlus  = "min-plus"
	NameMaxPlus  = "max-plus"
	NameBoolPlan = "bool-plan"
)

// Semiring is an idempotent semiring over cost.Cost values — the scalar
// contract a third-party algebra implements (see Register and Promote).
type Semiring interface {
	// Combine selects between two candidate values (min, max, or). It
	// must be idempotent, commutative and associative.
	Combine(a, b cost.Cost) cost.Cost
	// Extend accumulates values along a tree decomposition (+, and). It
	// must be associative, distribute over Combine, and treat Zero as
	// absorbing.
	Extend(a, b cost.Cost) cost.Cost
	// Zero is Combine's identity ("no candidate yet") and Extend's
	// absorbing element.
	Zero() cost.Cost
	// One is Extend's identity (the weight of an empty accumulation).
	One() cost.Cost
	// Name labels the algebra in registries, cache keys and tables. Two
	// distinct registered algebras must never share a name.
	Name() string
}

// Kernel is the engine-facing algebra: the scalar semiring plus the
// helpers and bulk primitives the solvers' kernels are generic over.
// Obtain one from a plain Semiring with Promote.
type Kernel interface {
	Semiring

	// Better reports that a strictly improves on b under the Combine
	// order: Combine(a, b) != b.
	Better(a, b cost.Cost) bool
	// IsZero reports that v represents an absent value (any
	// representation of Zero, e.g. every c >= Inf for min-plus).
	IsZero(v cost.Cost) bool
	// Norm maps every representation of an absent value to the canonical
	// Zero, leaving present values unchanged.
	Norm(v cost.Cost) cost.Cost

	// Extend3 returns Extend(a, Extend(b, c)).
	Extend3(a, b, c cost.Cost) cost.Cost
	// Relax2 returns Combine(best, Extend(a, b)).
	Relax2(best, a, b cost.Cost) cost.Cost
	// Relax3 returns Combine(best, Extend3(f, l, r)).
	Relax3(best, f, l, r cost.Cost) cost.Cost
	// RelaxAt folds Extend(f, w) into buf[c], reporting whether the cell
	// strictly improved — one a-activate edge.
	RelaxAt(buf []cost.Cost, c int, f, w cost.Cost) bool

	// RelaxPanel, RelaxRows and ReduceRelax are the bulk kernels; see
	// Panel and ReduceShape for the iteration-space encoding. RelaxRows
	// is the linear special case (constant equal strides, first-order row
	// starts, no base gather) the dense sweeps use, with scalar
	// parameters so the per-call cost is a plain register call:
	//
	//	row u of m: s1 = src[s1+u*s1Step], skipped when IsZero;
	//	cells t of (cnt0+u*cntInc):
	//	        relax dst[d+u*dStep + t*stride] with
	//	        Extend(s1, src[s+u*sStep + t*stride])
	RelaxPanel(dst, src []cost.Cost, base []int, p Panel)
	RelaxRows(dst, src []cost.Cost, m, cnt0, cntInc, s1, s1Step, d, dStep, s, sStep, stride int)
	ReduceRelax(best cost.Cost, a, b []cost.Cost, sh ReduceShape) cost.Cost

	// FoldSplitPanel and FoldSplitRow are the tile engines' bulk
	// kernels: full three-operand relaxations of recurrence (*) against a
	// flat c table whose rows rows locates (cell (r,c) at
	// rows.Org(r)+c), sweeping j-contiguous destination runs — one
	// indirect kernel call covers a whole panel of candidates, so only
	// the per-candidate f evaluation remains inside the loop.
	//
	// FoldSplitPanel accumulates one split run [ka,kb) into one output
	// row, evaluating f through the instance callback per candidate:
	// writing c(r,c) for tab[rows.Org(r)+c], for every k in the run with
	// a present c(i,k),
	//
	//	c(i,j) ⊕= f(i,k,j) ⊗ c(i,k) ⊗ c(k,j)
	//
	// for the m cells j = j0..j0+m-1. Callers guarantee i < ka and
	// kb <= j0, so the destination segment never aliases a read.
	//
	// FoldSplitRow is the single-split form with the f run already bulk
	// evaluated (Instance.FPanel): dst, right and fRow are three parallel
	// contiguous streams,
	//
	//	c(i,j0+t) ⊕= fRow[t] ⊗ c(i,k) ⊗ c(k,j0+t)
	//
	// Implementations must match the generic fold order
	// Extend3(f, left, right) observably — reassociating is legal only
	// when the concrete Extend commutes.
	FoldSplitPanel(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, f SplitFunc)
	FoldSplitRow(tab []cost.Cost, rows Rows, i, k, j0, m int, fRow []cost.Cost)

	// FoldSplitPanelRec and FoldSplitRowRec are the split-recording
	// twins of FoldSplitPanel/FoldSplitRow: spl is an int32 matrix
	// parallel to tab (same flat layout, -1 meaning "no split
	// recorded"), and alongside every value relaxation the primitives
	// maintain the split of cell (i,j) = the smallest k whose candidate
	// achieves the cell's current value:
	//
	//   - on a strict improvement, the split becomes k;
	//   - on a genuine tie (the candidate equals the cell and is not the
	//     algebra's Zero), it becomes min(split, k).
	//
	// The tie clause makes the recorded split independent of candidate
	// evaluation order: the blocked engine folds candidates in
	// non-ascending k order across its phases, yet — because each
	// candidate is evaluated exactly once against final sub-values — the
	// final recorded split is the smallest k achieving the optimum,
	// exactly the sequential reference's first-strict-improver-in-
	// ascending-k choice. Value writes must stay bitwise identical to the
	// non-recording primitives (the conformance matrix gates this).
	FoldSplitPanelRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, f SplitFunc)
	FoldSplitRowRec(tab []cost.Cost, spl []int32, rows Rows, i, k, j0, m int, fRow []cost.Cost)

	// FoldSplitCellRec is the range-clipped single-cell form the
	// Knuth–Yao pruned engine closes cells with: it folds the candidate
	// run k in [ka,kb) into the one destination cell (i,j), recording
	// under FoldSplitPanelRec's smallest-k tie discipline. Callers
	// guarantee i < ka and kb <= j. It is exactly
	// FoldSplitPanelRec(tab, spl, rows, i, ka, kb, j, 1, f) — value
	// writes bit-for-bit, recorded split identical — restated as its own
	// primitive so a pruned sweep whose windows average O(1) candidates
	// pays one direct call per cell instead of a panel dispatch, and so
	// the clipped bounds are explicit in the engine's hot loop. Its
	// right factors c(k,j) are a column walk: rows's origins make it a
	// first-order sequence.
	FoldSplitCellRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j int, f SplitFunc)

	// RelaxSplitPanelRec, RelaxSplitRowRec and RelaxSplitCellRec are the
	// recording primitives on a dense row-major table of row length
	// stride: each is its Fold form with Rows{Step: stride}.
	RelaxSplitPanelRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j0, m int, f SplitFunc)
	RelaxSplitRowRec(tab []cost.Cost, spl []int32, stride, i, k, j0, m int, fRow []cost.Cost)
	RelaxSplitCellRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j int, f SplitFunc)
}

// Rows is the row geometry of a flat cost table as the split
// primitives address it: row r starts at the flat origin
//
//	Org(r) = r·Step − r(r−1)/2·Drop
//
// and cell (r,c) lives at Org(r)+c, so consecutive origins differ by
// Step − r·Drop and a column walk down rows k, k+1, … is a first-order
// sequence. A dense row-major table of row length s is Rows{Step: s};
// the packed upper triangle recurrence.Table stores for N objects is
// Rows{Step: N−1, Drop: 1}.
type Rows struct{ Step, Drop int }

// Org returns the flat origin of row r.
func (g Rows) Org(r int) int { return r*g.Step - (r*(r-1)>>1)*g.Drop }

// SplitFunc evaluates the decomposition cost f(i,k,j) of splitting node
// (i,j) at k — the shape of recurrence.Instance.F, threaded into the
// blocked bulk primitives.
type SplitFunc func(i, k, j int) cost.Cost

// Panel describes the two-level iteration space shared by every
// cache-tiled a-square sweep: an outer walk over candidate rows, each
// carrying one scalar factor s1 and an inner run of cells to relax:
//
//	for u := 0; u < M; u++ {                 // cnt, s1, row starts advance
//	        s1 := src[s1Idx]                 // skipped when IsZero(s1)
//	        for t := 0; t < cnt; t++ {       // d, s advance by their steps
//	                dst[d] = Combine(dst[d], Extend(s1, src[s]))
//	        }
//	}
//
// Index sequences are second-order arithmetic progressions — the exact
// shape of both the dense row/column sweeps and the banded triangular
// (deficit, offset) layout — so one primitive covers all four tiled
// passes. When Base is non-nil the src row start additionally gathers
// base[BaseIdx] (the banded per-pair block offsets).
type Panel struct {
	M            int // outer rows
	Cnt0, CntInc int // inner count: starts Cnt0, += CntInc per row

	S1, S1Step, S1Inc int // scalar index: += S1Step per row, S1Step += S1Inc

	D, DStartStep, DStartInc int // dst row start (second-order)
	DStep, DStepRow, DInc    int // dst cell step: starts DStep (+DStepRow per row), += DInc per cell

	S, SStartStep int // src row start offset (first-order)
	SStep, SInc   int // src cell step: starts SStep, += SInc per cell

	BaseIdx, BaseStep int // src row start += base[BaseIdx]; BaseIdx += BaseStep per row
}

// ReduceShape describes the two-level reduction of an a-pebble gap scan:
// best = Combine(best, Extend(a[ai], b[bi])) over rows of paired runs
// whose starts are second-order progressions and whose cell strides are
// constant.
type ReduceShape struct {
	M            int // rows
	Cnt0, CntInc int // cells per row: starts Cnt0, += CntInc per row

	A, AStartStep, AStartInc int // stream A row start (second-order)
	AStep                    int // stream A cell stride
	B, BStartStep            int // stream B row start (first-order)
	BStep                    int // stream B cell stride
}

// Sentinels chosen far from the int64 boundaries so a few saturating
// Extends cannot wrap. They coincide with cost.Inf by construction.
const (
	posInf = cost.Inf
	negInf = -cost.Inf
)

var _ = [1]struct{}{}[cost.Inf-cost.Cost(math.MaxInt64/4)] // pin the sentinel the kernels assume

// MinPlus is the paper's algebra: Combine = min, Extend = saturating +.
// Its kernel primitives are bitwise-identical to the specialised loops
// the pre-generic engines ran.
type MinPlus struct{ _ [0]minPlusTag }

type minPlusTag struct{}

// Combine returns min(a, b).
func (MinPlus) Combine(a, b cost.Cost) cost.Cost { return cost.Min(a, b) }

// Extend returns a+b saturated at the +Inf sentinel.
func (MinPlus) Extend(a, b cost.Cost) cost.Cost { return cost.Add(a, b) }

// Zero returns +Inf.
func (MinPlus) Zero() cost.Cost { return posInf }

// One returns 0.
func (MinPlus) One() cost.Cost { return 0 }

// Name returns "min-plus".
func (MinPlus) Name() string { return NameMinPlus }

// Better reports a < b.
func (MinPlus) Better(a, b cost.Cost) bool { return a < b }

// IsZero reports c >= Inf, the min-plus "absent" predicate.
func (MinPlus) IsZero(v cost.Cost) bool { return v >= posInf }

// Norm maps every infinite representation to the canonical Inf.
func (MinPlus) Norm(v cost.Cost) cost.Cost { return cost.Norm(v) }

// Extend3 returns a+b+c with saturation.
func (MinPlus) Extend3(a, b, c cost.Cost) cost.Cost { return cost.Add3(a, b, c) }

// Relax2 returns min(best, a+b).
func (MinPlus) Relax2(best, a, b cost.Cost) cost.Cost {
	if v := cost.Add(a, b); v < best {
		return v
	}
	return best
}

// Relax3 returns min(best, f+l+r).
func (MinPlus) Relax3(best, f, l, r cost.Cost) cost.Cost {
	if v := cost.Add3(f, l, r); v < best {
		return v
	}
	return best
}

// RelaxAt folds f+w into buf[c].
func (MinPlus) RelaxAt(buf []cost.Cost, c int, f, w cost.Cost) bool {
	if v := cost.Add(f, w); v < buf[c] {
		buf[c] = v
		return true
	}
	return false
}

// RelaxPanel: the min-plus inner body is the raw-add relax of the
// specialised tiled kernels. s1 is finite (rows with IsZero(s1) are
// skipped) and every src cell is canonical (<= Inf), so s1+src cannot
// wrap; a candidate involving an Inf cell sums above Inf and loses every
// `v < dst` test exactly as a saturated Inf would.
func (MinPlus) RelaxPanel(dst, src []cost.Cost, base []int, p Panel) {
	s1i, s1Step := p.S1, p.S1Step
	dStart, dStartStep := p.D, p.DStartStep
	cnt := p.Cnt0
	dStep0 := p.DStep
	sStart := p.S
	bi := p.BaseIdx
	dInc, sInc := p.DInc, p.SInc
	for u := 0; u < p.M; u++ {
		if cnt > 0 {
			if s1 := src[s1i]; s1 < posInf {
				d, dStep := dStart, dStep0
				s, sStep := sStart, p.SStep
				if base != nil {
					s += base[bi]
				}
				for t := 0; t < cnt; t++ {
					v := s1 + src[s]
					if v < dst[d] {
						dst[d] = v
					}
					d += dStep
					dStep += dInc
					s += sStep
					sStep += sInc
				}
			}
		}
		cnt += p.CntInc
		s1i += s1Step
		s1Step += p.S1Inc
		dStart += dStartStep
		dStartStep += p.DStartInc
		dStep0 += p.DStepRow
		sStart += p.SStartStep
		bi += p.BaseStep
	}
}

// RelaxRows is the linear panel: a single running destination index with
// a constant source offset per row — the exact inner loop the
// pre-generic dense a-square kernel ran.
func (MinPlus) RelaxRows(dst, src []cost.Cost, m, cnt0, cntInc, s1i, s1Step, dStart, dStep, sStart, sStep, stride int) {
	cnt := cnt0
	for u := 0; u < m; u++ {
		if cnt > 0 {
			if s1 := src[s1i]; s1 < posInf {
				off := sStart - dStart
				end := dStart + cnt*stride
				for d := dStart; d != end; d += stride {
					v := s1 + src[d+off]
					if v < dst[d] {
						dst[d] = v
					}
				}
			}
		}
		cnt += cntInc
		s1i += s1Step
		dStart += dStep
		sStart += sStep
	}
}

// ReduceRelax: the b stream may carry raw leaf inits (not saturated), so
// it is pruned at Inf; the a stream is canonical, so an Inf a-cell sums
// above every canonical best and never wins — matching cost.Add exactly.
func (MinPlus) ReduceRelax(best cost.Cost, a, b []cost.Cost, sh ReduceShape) cost.Cost {
	aStart, aStartStep := sh.A, sh.AStartStep
	bStart := sh.B
	cnt := sh.Cnt0
	for u := 0; u < sh.M; u++ {
		ai, bi := aStart, bStart
		for t := 0; t < cnt; t++ {
			if x := b[bi]; x < posInf {
				if v := a[ai] + x; v < best {
					best = v
				}
			}
			ai += sh.AStep
			bi += sh.BStep
		}
		cnt += sh.CntInc
		aStart += aStartStep
		aStartStep += sh.AStartInc
		bStart += sh.BStartStep
	}
	return best
}

// FoldSplitPanel: the min-plus body is two contiguous streams (the
// destination row segment and the k'th source row segment) plus one
// scalar left factor per run row. left and f are pruned at Inf; source
// cells are canonical (<= Inf), so a candidate through an Inf cell sums
// above Inf and loses every `v < dst` test exactly as a saturated Inf
// would — the discipline of RelaxPanel, bitwise-matching cost.Add3.
func (MinPlus) FoldSplitPanel(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		left := tab[row+k]
		if left >= posInf {
			continue
		}
		src := tab[ok+j0 : ok+j0+m]
		for t := range dst {
			fv := f(i, k, j0+t)
			if fv >= posInf {
				continue
			}
			if v := left + fv + src[t]; v < dst[t] {
				dst[t] = v
			}
		}
	}
}

// FoldSplitRow: the min-plus three-stream run — f pre-evaluated, left
// scalar, right and dst contiguous. Same pruning discipline as
// FoldSplitPanel.
func (MinPlus) FoldSplitRow(tab []cost.Cost, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	if m <= 0 {
		return
	}
	row, ok := rows.Org(i), rows.Org(k)
	left := tab[row+k]
	if left >= posInf {
		return
	}
	dst := tab[row+j0 : row+j0+m]
	src := tab[ok+j0 : ok+j0+m]
	fRow = fRow[:m]
	for t := range dst {
		fv := fRow[t]
		if fv >= posInf {
			continue
		}
		if v := left + fv + src[t]; v < dst[t] {
			dst[t] = v
		}
	}
}

// FoldSplitPanelRec is FoldSplitPanel with split recording. The raw
// sum of pruned finite factors can still reach or exceed Inf (a
// saturated candidate), so the tie clause additionally requires
// v < Inf: a fabricated Inf == Inf match must never record a split.
// Value writes are bit-for-bit those of FoldSplitPanel.
func (MinPlus) FoldSplitPanelRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	dsp := spl[row+j0 : row+j0+m]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		left := tab[row+k]
		if left >= posInf {
			continue
		}
		src := tab[ok+j0 : ok+j0+m]
		for t := range dst {
			fv := f(i, k, j0+t)
			if fv >= posInf {
				continue
			}
			v := left + fv + src[t]
			if v < dst[t] {
				dst[t] = v
				dsp[t] = int32(k)
			} else if v == dst[t] && v < posInf {
				if s := dsp[t]; s < 0 || int32(k) < s {
					dsp[t] = int32(k)
				}
			}
		}
	}
}

// FoldSplitRowRec is FoldSplitRow with split recording, under
// FoldSplitPanelRec's tie discipline.
func (MinPlus) FoldSplitRowRec(tab []cost.Cost, spl []int32, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	if m <= 0 {
		return
	}
	row, ok := rows.Org(i), rows.Org(k)
	left := tab[row+k]
	if left >= posInf {
		return
	}
	dst := tab[row+j0 : row+j0+m]
	dsp := spl[row+j0 : row+j0+m]
	src := tab[ok+j0 : ok+j0+m]
	fRow = fRow[:m]
	for t := range dst {
		fv := fRow[t]
		if fv >= posInf {
			continue
		}
		v := left + fv + src[t]
		if v < dst[t] {
			dst[t] = v
			dsp[t] = int32(k)
		} else if v == dst[t] && v < posInf {
			if s := dsp[t]; s < 0 || int32(k) < s {
				dsp[t] = int32(k)
			}
		}
	}
}

// FoldSplitCellRec is the min-plus clipped cell closure: one
// destination cell, candidates [ka,kb), best and split carried in
// registers and stored once. Pruning and tie discipline are those of
// FoldSplitPanelRec, so values and splits are bit-for-bit what the
// m=1 panel form computes.
func (MinPlus) FoldSplitCellRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j int, f SplitFunc) {
	row := rows.Org(i)
	d := row + j
	best, bs := tab[d], spl[d]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		left := tab[row+k]
		if left >= posInf {
			continue
		}
		fv := f(i, k, j)
		if fv >= posInf {
			continue
		}
		v := left + fv + tab[ok+j]
		if v < best {
			best = v
			bs = int32(k)
		} else if v == best && v < posInf {
			if bs < 0 || int32(k) < bs {
				bs = int32(k)
			}
		}
	}
	tab[d], spl[d] = best, bs
}

// RelaxSplitPanelRec is FoldSplitPanelRec on a dense table.
func (s MinPlus) RelaxSplitPanelRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j0, m int, f SplitFunc) {
	s.FoldSplitPanelRec(tab, spl, Rows{Step: stride}, i, ka, kb, j0, m, f)
}

// RelaxSplitRowRec is FoldSplitRowRec on a dense table.
func (s MinPlus) RelaxSplitRowRec(tab []cost.Cost, spl []int32, stride, i, k, j0, m int, fRow []cost.Cost) {
	s.FoldSplitRowRec(tab, spl, Rows{Step: stride}, i, k, j0, m, fRow)
}

// RelaxSplitCellRec is FoldSplitCellRec on a dense table.
func (s MinPlus) RelaxSplitCellRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j int, f SplitFunc) {
	s.FoldSplitCellRec(tab, spl, Rows{Step: stride}, i, ka, kb, j, f)
}

// MaxPlus maximises total weight: Combine = max, Extend = saturating +.
// Estimates grow upward from -Inf; the optimum is the costliest tree
// (worst-case parenthesization analysis).
type MaxPlus struct{ _ [0]maxPlusTag }

type maxPlusTag struct{}

// Combine returns max(a, b).
func (MaxPlus) Combine(a, b cost.Cost) cost.Cost {
	if a > b {
		return a
	}
	return b
}

// Extend returns a+b, saturating at the -Inf sentinel (an absent operand
// keeps the whole accumulation absent).
func (MaxPlus) Extend(a, b cost.Cost) cost.Cost {
	if a <= negInf || b <= negInf {
		return negInf
	}
	return a + b
}

// Zero returns -Inf.
func (MaxPlus) Zero() cost.Cost { return negInf }

// One returns 0.
func (MaxPlus) One() cost.Cost { return 0 }

// Name returns "max-plus".
func (MaxPlus) Name() string { return NameMaxPlus }

// Better reports a > b.
func (MaxPlus) Better(a, b cost.Cost) bool { return a > b }

// IsZero reports c <= -Inf.
func (MaxPlus) IsZero(v cost.Cost) bool { return v <= negInf }

// Norm maps every sub--Inf representation to the canonical -Inf.
func (MaxPlus) Norm(v cost.Cost) cost.Cost {
	if v <= negInf {
		return negInf
	}
	return v
}

// Extend3 returns a+b+c with saturation at -Inf.
func (m MaxPlus) Extend3(a, b, c cost.Cost) cost.Cost { return m.Extend(m.Extend(a, b), c) }

// Relax2 returns max(best, a+b).
func (m MaxPlus) Relax2(best, a, b cost.Cost) cost.Cost {
	if v := m.Extend(a, b); v > best {
		return v
	}
	return best
}

// Relax3 returns max(best, f+l+r).
func (m MaxPlus) Relax3(best, f, l, r cost.Cost) cost.Cost {
	if v := m.Extend3(f, l, r); v > best {
		return v
	}
	return best
}

// RelaxAt folds f+w into buf[c].
func (m MaxPlus) RelaxAt(buf []cost.Cost, c int, f, w cost.Cost) bool {
	if v := m.Extend(f, w); v > buf[c] {
		buf[c] = v
		return true
	}
	return false
}

// RelaxPanel relaxes upward. Both factors are pruned at -Inf: unlike
// min-plus, an absent factor plus a large finite one lands inside the
// finite range and would wrongly win a max.
func (MaxPlus) RelaxPanel(dst, src []cost.Cost, base []int, p Panel) {
	s1i, s1Step := p.S1, p.S1Step
	dStart, dStartStep := p.D, p.DStartStep
	dStep0 := p.DStep
	sStart := p.S
	bi := p.BaseIdx
	cnt := p.Cnt0
	for u := 0; u < p.M; u++ {
		if cnt > 0 {
			if s1 := src[s1i]; s1 > negInf {
				d, dStep := dStart, dStep0
				s, sStep := sStart, p.SStep
				if base != nil {
					s += base[bi]
				}
				for t := 0; t < cnt; t++ {
					if x := src[s]; x > negInf {
						if v := s1 + x; v > dst[d] {
							dst[d] = v
						}
					}
					d += dStep
					dStep += p.DInc
					s += sStep
					sStep += p.SInc
				}
			}
		}
		cnt += p.CntInc
		s1i += s1Step
		s1Step += p.S1Inc
		dStart += dStartStep
		dStartStep += p.DStartInc
		dStep0 += p.DStepRow
		sStart += p.SStartStep
		bi += p.BaseStep
	}
}

// RelaxRows is the linear panel, relaxing upward with both factors
// pruned at -Inf.
func (MaxPlus) RelaxRows(dst, src []cost.Cost, m, cnt0, cntInc, s1i, s1Step, dStart, dStep, sStart, sStep, stride int) {
	cnt := cnt0
	for u := 0; u < m; u++ {
		if cnt > 0 {
			if s1 := src[s1i]; s1 > negInf {
				off := sStart - dStart
				end := dStart + cnt*stride
				for d := dStart; d != end; d += stride {
					if x := src[d+off]; x > negInf {
						if v := s1 + x; v > dst[d] {
							dst[d] = v
						}
					}
				}
			}
		}
		cnt += cntInc
		s1i += s1Step
		dStart += dStep
		sStart += sStep
	}
}

// ReduceRelax reduces a max over gap candidates, pruning both streams.
func (MaxPlus) ReduceRelax(best cost.Cost, a, b []cost.Cost, sh ReduceShape) cost.Cost {
	aStart, aStartStep := sh.A, sh.AStartStep
	bStart := sh.B
	cnt := sh.Cnt0
	for u := 0; u < sh.M; u++ {
		ai, bi := aStart, bStart
		for t := 0; t < cnt; t++ {
			if x, y := a[ai], b[bi]; x > negInf && y > negInf {
				if v := x + y; v > best {
					best = v
				}
			}
			ai += sh.AStep
			bi += sh.BStep
		}
		cnt += sh.CntInc
		aStart += aStartStep
		aStartStep += sh.AStartInc
		bStart += sh.BStartStep
	}
	return best
}

// FoldSplitPanel relaxes upward with every factor pruned at -Inf (an
// absent factor plus a large finite one would land inside the finite
// range and wrongly win a max).
func (MaxPlus) FoldSplitPanel(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		left := tab[row+k]
		if left <= negInf {
			continue
		}
		src := tab[ok+j0 : ok+j0+m]
		for t := range dst {
			r := src[t]
			if r <= negInf {
				continue
			}
			fv := f(i, k, j0+t)
			if fv <= negInf {
				continue
			}
			if v := left + fv + r; v > dst[t] {
				dst[t] = v
			}
		}
	}
}

// FoldSplitRow relaxes the pre-evaluated run upward, pruning every
// factor at -Inf.
func (MaxPlus) FoldSplitRow(tab []cost.Cost, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	if m <= 0 {
		return
	}
	row, ok := rows.Org(i), rows.Org(k)
	left := tab[row+k]
	if left <= negInf {
		return
	}
	dst := tab[row+j0 : row+j0+m]
	src := tab[ok+j0 : ok+j0+m]
	fRow = fRow[:m]
	for t := range dst {
		r := src[t]
		if r <= negInf {
			continue
		}
		fv := fRow[t]
		if fv <= negInf {
			continue
		}
		if v := left + fv + r; v > dst[t] {
			dst[t] = v
		}
	}
}

// FoldSplitPanelRec is FoldSplitPanel with split recording. All three
// factors are already pruned at -Inf, but the raw sum can still saturate
// below -Inf in principle, so the tie clause mirrors min-plus with
// v > -Inf. Value writes are bit-for-bit those of FoldSplitPanel.
func (MaxPlus) FoldSplitPanelRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	dsp := spl[row+j0 : row+j0+m]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		left := tab[row+k]
		if left <= negInf {
			continue
		}
		src := tab[ok+j0 : ok+j0+m]
		for t := range dst {
			r := src[t]
			if r <= negInf {
				continue
			}
			fv := f(i, k, j0+t)
			if fv <= negInf {
				continue
			}
			v := left + fv + r
			if v > dst[t] {
				dst[t] = v
				dsp[t] = int32(k)
			} else if v == dst[t] && v > negInf {
				if s := dsp[t]; s < 0 || int32(k) < s {
					dsp[t] = int32(k)
				}
			}
		}
	}
}

// FoldSplitRowRec is FoldSplitRow with split recording, under
// FoldSplitPanelRec's tie discipline.
func (MaxPlus) FoldSplitRowRec(tab []cost.Cost, spl []int32, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	if m <= 0 {
		return
	}
	row, ok := rows.Org(i), rows.Org(k)
	left := tab[row+k]
	if left <= negInf {
		return
	}
	dst := tab[row+j0 : row+j0+m]
	dsp := spl[row+j0 : row+j0+m]
	src := tab[ok+j0 : ok+j0+m]
	fRow = fRow[:m]
	for t := range dst {
		r := src[t]
		if r <= negInf {
			continue
		}
		fv := fRow[t]
		if fv <= negInf {
			continue
		}
		v := left + fv + r
		if v > dst[t] {
			dst[t] = v
			dsp[t] = int32(k)
		} else if v == dst[t] && v > negInf {
			if s := dsp[t]; s < 0 || int32(k) < s {
				dsp[t] = int32(k)
			}
		}
	}
}

// FoldSplitCellRec is the max-plus clipped cell closure, pruning every
// factor at -Inf under FoldSplitPanelRec's tie discipline.
func (MaxPlus) FoldSplitCellRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j int, f SplitFunc) {
	row := rows.Org(i)
	d := row + j
	best, bs := tab[d], spl[d]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		left := tab[row+k]
		if left <= negInf {
			continue
		}
		r := tab[ok+j]
		if r <= negInf {
			continue
		}
		fv := f(i, k, j)
		if fv <= negInf {
			continue
		}
		v := left + fv + r
		if v > best {
			best = v
			bs = int32(k)
		} else if v == best && v > negInf {
			if bs < 0 || int32(k) < bs {
				bs = int32(k)
			}
		}
	}
	tab[d], spl[d] = best, bs
}

// RelaxSplitPanelRec is FoldSplitPanelRec on a dense table.
func (s MaxPlus) RelaxSplitPanelRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j0, m int, f SplitFunc) {
	s.FoldSplitPanelRec(tab, spl, Rows{Step: stride}, i, ka, kb, j0, m, f)
}

// RelaxSplitRowRec is FoldSplitRowRec on a dense table.
func (s MaxPlus) RelaxSplitRowRec(tab []cost.Cost, spl []int32, stride, i, k, j0, m int, fRow []cost.Cost) {
	s.FoldSplitRowRec(tab, spl, Rows{Step: stride}, i, k, j0, m, fRow)
}

// RelaxSplitCellRec is FoldSplitCellRec on a dense table.
func (s MaxPlus) RelaxSplitCellRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j int, f SplitFunc) {
	s.FoldSplitCellRec(tab, spl, Rows{Step: stride}, i, ka, kb, j, f)
}

// BoolPlan decides feasibility: values are 0 (impossible) and nonzero
// (possible, canonically 1); Combine = or, Extend = and. An instance
// marks forbidden decompositions with F = 0 and allowed ones with F = 1.
type BoolPlan struct{ _ [0]boolPlanTag }

type boolPlanTag struct{}

// Combine returns a OR b.
func (BoolPlan) Combine(a, b cost.Cost) cost.Cost {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// Extend returns a AND b.
func (BoolPlan) Extend(a, b cost.Cost) cost.Cost {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

// Zero returns 0 (false).
func (BoolPlan) Zero() cost.Cost { return 0 }

// One returns 1 (true).
func (BoolPlan) One() cost.Cost { return 1 }

// Name returns "bool-plan".
func (BoolPlan) Name() string { return NameBoolPlan }

// Better reports a true improving on a false.
func (BoolPlan) Better(a, b cost.Cost) bool { return a != 0 && b == 0 }

// IsZero reports v == 0.
func (BoolPlan) IsZero(v cost.Cost) bool { return v == 0 }

// Norm maps every truthy value to the canonical 1.
func (BoolPlan) Norm(v cost.Cost) cost.Cost {
	if v != 0 {
		return 1
	}
	return 0
}

// Extend3 returns a AND b AND c.
func (BoolPlan) Extend3(a, b, c cost.Cost) cost.Cost {
	if a != 0 && b != 0 && c != 0 {
		return 1
	}
	return 0
}

// Relax2 returns best OR (a AND b).
func (BoolPlan) Relax2(best, a, b cost.Cost) cost.Cost {
	if best == 0 && a != 0 && b != 0 {
		return 1
	}
	return best
}

// Relax3 returns best OR (f AND l AND r).
func (BoolPlan) Relax3(best, f, l, r cost.Cost) cost.Cost {
	if best == 0 && f != 0 && l != 0 && r != 0 {
		return 1
	}
	return best
}

// RelaxAt folds f AND w into buf[c].
func (BoolPlan) RelaxAt(buf []cost.Cost, c int, f, w cost.Cost) bool {
	if buf[c] == 0 && f != 0 && w != 0 {
		buf[c] = 1
		return true
	}
	return false
}

// RelaxPanel turns on every reachable cell of the panel.
func (BoolPlan) RelaxPanel(dst, src []cost.Cost, base []int, p Panel) {
	s1i, s1Step := p.S1, p.S1Step
	dStart, dStartStep := p.D, p.DStartStep
	dStep0 := p.DStep
	sStart := p.S
	bi := p.BaseIdx
	cnt := p.Cnt0
	for u := 0; u < p.M; u++ {
		if cnt > 0 {
			if src[s1i] != 0 {
				d, dStep := dStart, dStep0
				s, sStep := sStart, p.SStep
				if base != nil {
					s += base[bi]
				}
				for t := 0; t < cnt; t++ {
					if src[s] != 0 && dst[d] == 0 {
						dst[d] = 1
					}
					d += dStep
					dStep += p.DInc
					s += sStep
					sStep += p.SInc
				}
			}
		}
		cnt += p.CntInc
		s1i += s1Step
		s1Step += p.S1Inc
		dStart += dStartStep
		dStartStep += p.DStartInc
		dStep0 += p.DStepRow
		sStart += p.SStartStep
		bi += p.BaseStep
	}
}

// RelaxRows is the linear panel: turn on every cell with a feasible
// candidate.
func (BoolPlan) RelaxRows(dst, src []cost.Cost, m, cnt0, cntInc, s1i, s1Step, dStart, dStep, sStart, sStep, stride int) {
	cnt := cnt0
	for u := 0; u < m; u++ {
		if cnt > 0 {
			if src[s1i] != 0 {
				off := sStart - dStart
				end := dStart + cnt*stride
				for d := dStart; d != end; d += stride {
					if src[d+off] != 0 && dst[d] == 0 {
						dst[d] = 1
					}
				}
			}
		}
		cnt += cntInc
		s1i += s1Step
		dStart += dStep
		sStart += sStep
	}
}

// FoldSplitPanel turns on every cell of the run with a feasible
// candidate; already-on cells skip the f evaluation entirely.
func (BoolPlan) FoldSplitPanel(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		if tab[row+k] == 0 {
			continue
		}
		src := tab[ok+j0 : ok+j0+m]
		for t := range dst {
			if dst[t] == 0 && src[t] != 0 && f(i, k, j0+t) != 0 {
				dst[t] = 1
			}
		}
	}
}

// FoldSplitRow turns on every off cell of the pre-evaluated run whose
// candidate is feasible.
func (BoolPlan) FoldSplitRow(tab []cost.Cost, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	row, ok := rows.Org(i), rows.Org(k)
	if m <= 0 || tab[row+k] == 0 {
		return
	}
	dst := tab[row+j0 : row+j0+m]
	src := tab[ok+j0 : ok+j0+m]
	fRow = fRow[:m]
	for t := range dst {
		if dst[t] == 0 && src[t] != 0 && fRow[t] != 0 {
			dst[t] = 1
		}
	}
}

// FoldSplitPanelRec is FoldSplitPanel with split recording. Unlike the
// non-recording body it cannot skip the f evaluation once a cell is on:
// a feasible candidate at a smaller k than the recorded split is a tie
// that must lower the split. It still skips f whenever the recorded
// split is already <= k. Value writes are bit-for-bit those of
// FoldSplitPanel.
func (BoolPlan) FoldSplitPanelRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	dsp := spl[row+j0 : row+j0+m]
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		if tab[row+k] == 0 {
			continue
		}
		src := tab[ok+j0 : ok+j0+m]
		for t := range dst {
			if dst[t] != 0 {
				if s := dsp[t]; s >= 0 && s <= int32(k) {
					continue
				}
				if src[t] != 0 && f(i, k, j0+t) != 0 {
					dsp[t] = int32(k)
				}
			} else if src[t] != 0 && f(i, k, j0+t) != 0 {
				dst[t] = 1
				dsp[t] = int32(k)
			}
		}
	}
}

// FoldSplitRowRec is FoldSplitRow with split recording, under
// FoldSplitPanelRec's tie discipline.
func (BoolPlan) FoldSplitRowRec(tab []cost.Cost, spl []int32, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	row, ok := rows.Org(i), rows.Org(k)
	if m <= 0 || tab[row+k] == 0 {
		return
	}
	dst := tab[row+j0 : row+j0+m]
	dsp := spl[row+j0 : row+j0+m]
	src := tab[ok+j0 : ok+j0+m]
	fRow = fRow[:m]
	for t := range dst {
		if dst[t] != 0 {
			if s := dsp[t]; s >= 0 && s <= int32(k) {
				continue
			}
			if src[t] != 0 && fRow[t] != 0 {
				dsp[t] = int32(k)
			}
		} else if src[t] != 0 && fRow[t] != 0 {
			dst[t] = 1
			dsp[t] = int32(k)
		}
	}
}

// FoldSplitCellRec is the bool-plan clipped cell closure: once the
// cell is on with a recorded split at or below k the remaining
// (ascending) candidates cannot lower it, so the scan stops early;
// otherwise it follows FoldSplitPanelRec's discipline exactly.
func (BoolPlan) FoldSplitCellRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j int, f SplitFunc) {
	row := rows.Org(i)
	d := row + j
	ok, step := rows.Org(ka), rows.Step-ka*rows.Drop
	for k := ka; k < kb; k, ok, step = k+1, ok+step, step-rows.Drop {
		if on := tab[d] != 0; on {
			if s := spl[d]; s >= 0 && s <= int32(k) {
				return
			}
		}
		if tab[row+k] == 0 {
			continue
		}
		if tab[ok+j] != 0 && f(i, k, j) != 0 {
			tab[d] = 1
			spl[d] = int32(k)
		}
	}
}

// RelaxSplitPanelRec is FoldSplitPanelRec on a dense table.
func (s BoolPlan) RelaxSplitPanelRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j0, m int, f SplitFunc) {
	s.FoldSplitPanelRec(tab, spl, Rows{Step: stride}, i, ka, kb, j0, m, f)
}

// RelaxSplitRowRec is FoldSplitRowRec on a dense table.
func (s BoolPlan) RelaxSplitRowRec(tab []cost.Cost, spl []int32, stride, i, k, j0, m int, fRow []cost.Cost) {
	s.FoldSplitRowRec(tab, spl, Rows{Step: stride}, i, k, j0, m, fRow)
}

// RelaxSplitCellRec is FoldSplitCellRec on a dense table.
func (s BoolPlan) RelaxSplitCellRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j int, f SplitFunc) {
	s.FoldSplitCellRec(tab, spl, Rows{Step: stride}, i, ka, kb, j, f)
}

// ReduceRelax short-circuits once any candidate is feasible.
func (BoolPlan) ReduceRelax(best cost.Cost, a, b []cost.Cost, sh ReduceShape) cost.Cost {
	if best != 0 {
		return best
	}
	aStart, aStartStep := sh.A, sh.AStartStep
	bStart := sh.B
	cnt := sh.Cnt0
	for u := 0; u < sh.M; u++ {
		ai, bi := aStart, bStart
		for t := 0; t < cnt; t++ {
			if a[ai] != 0 && b[bi] != 0 {
				return 1
			}
			ai += sh.AStep
			bi += sh.BStep
		}
		cnt += sh.CntInc
		aStart += aStartStep
		aStartStep += sh.AStartInc
		bStart += sh.BStartStep
	}
	return best
}
