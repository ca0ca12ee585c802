package algebra

import "sublineardp/internal/cost"

// ProductFolder is implemented by kernels with fused split bodies for a
// product-form F(i,k,j) = w[i]·w[k]·w[j] (recurrence.Instance.FProduct).
//
// FoldProductRun folds the split run [ka,kb) into the m cells
// (i, j0..j0+m-1). Its values are bitwise those of one FoldSplitRow call
// per split k, in ascending k, with fRow[t] = w[i]·w[k]·w[j0+t]
// multiplied left to right; FoldProductRunRec matches FoldSplitRowRec
// the same way, recorded splits included. The bodies hold s = w[i]·w[k]
// in a register, so no F run is written or read, and fold two splits per
// pass over the run: each cell still sees split k before split k+1, so
// the smallest-k tie discipline is unchanged. Callers guarantee i < ka,
// kb <= j0 and that every weight product lies in [0, Inf) (ProductFits),
// so the bodies prune no f value.
type ProductFolder interface {
	FoldProductRun(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, w []cost.Cost)
	FoldProductRunRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, w []cost.Cost)
}

// ProductFits reports that every product w[i]·w[k]·w[j] of the weights
// lies in [0, Inf) without overflow: the precondition of the
// ProductFolder bodies.
func ProductFits(w []cost.Cost) bool {
	var top cost.Cost
	for _, v := range w {
		if v < 0 {
			return false
		}
		top = max(top, v)
	}
	return top == 0 || (top <= posInf/top && top*top <= (posInf-1)/top)
}

// BareFolder is implemented by kernels with split bodies that carry no
// F at all, for a k-independent F(i,k,j) = W(i,j)
// (recurrence.Instance.FSpan): the engine folds c(i,k) ⊗ c(k,j) and
// Extends W(i,j) onto the cell once, when it is final — legal because
// Extend distributes over Combine.
//
// FoldBareRun folds the split run [ka,kb) into the m cells
// (i, j0..j0+m-1); its values are bitwise those of one FoldSplitRow call
// per split k, in ascending k, with every fRow[t] the algebra's One, and
// FoldBareRunRec matches FoldSplitRowRec the same way. Like the product
// bodies they fold two splits per pass. Callers guarantee i < ka and
// kb <= j0.
type BareFolder interface {
	FoldBareRun(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int)
	FoldBareRunRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int)
}

// Every body below walks its split run the same way: k0 is the next
// split whose left factor c(i,k0) is present, k1 the next after it; a
// pair runs one pass over the destination run, a lone last split its
// own pass. A split with an absent left factor contributes nothing, so
// skipping it keeps every cell's candidate sequence, and pairing k0 with
// a k1 further on keeps it ascending. The passes are leaf functions so
// that each inner loop gets the registers to itself.

// runAt returns row k's cells j0..j0+m-1.
func runAt(tab []cost.Cost, rows Rows, k, j0, m int) []cost.Cost {
	o := rows.Org(k) + j0
	return tab[o : o+m]
}

// nextMinLive returns the first k in [k, kb) with a present min-plus
// left factor tab[row+k], or kb.
func nextMinLive(tab []cost.Cost, row, k, kb int) int {
	for k < kb && tab[row+k] >= posInf {
		k++
	}
	return k
}

// FoldProductRun is the min-plus product body. f is below Inf, so it
// needs none of FoldSplitRow's pruning.
func (MinPlus) FoldProductRun(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, w []cost.Cost) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst, wr := tab[row+j0:row+j0+m], w[j0:j0+m]
	for k0 := nextMinLive(tab, row, ka, kb); k0 < kb; k0 = nextMinLive(tab, row, k0+1, kb) {
		k1 := nextMinLive(tab, row, k0+1, kb)
		if k1 == kb {
			minProduct1(dst, runAt(tab, rows, k0, j0, m), wr, tab[row+k0], w[i]*w[k0])
			return
		}
		minProduct2(dst, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m), wr,
			tab[row+k0], tab[row+k1], w[i]*w[k0], w[i]*w[k1])
		k0 = k1
	}
}

// The min-plus passes add raw: l < Inf, f < Inf and every cell <= Inf,
// so a candidate through an Inf right factor sums to Inf or more and
// loses every `v < dst` test, as in FoldSplitRow.

func minProduct1(dst, src, wr []cost.Cost, l, s cost.Cost) {
	src, wr = src[:len(dst)], wr[:len(dst)]
	for t := range dst {
		if v := l + s*wr[t] + src[t]; v < dst[t] {
			dst[t] = v
		}
	}
}

func minProduct2(dst, src0, src1, wr []cost.Cost, l0, l1, s0, s1 cost.Cost) {
	src0, src1, wr = src0[:len(dst)], src1[:len(dst)], wr[:len(dst)]
	for t := range dst {
		wj := wr[t]
		v := min(l0+s0*wj+src0[t], l1+s1*wj+src1[t])
		if v < dst[t] {
			dst[t] = v
		}
	}
}

// FoldProductRunRec is FoldProductRun with split recording, under
// FoldSplitPanelRec's tie discipline.
func (MinPlus) FoldProductRunRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, w []cost.Cost) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst, dsp, wr := tab[row+j0:row+j0+m], spl[row+j0:row+j0+m], w[j0:j0+m]
	for k0 := nextMinLive(tab, row, ka, kb); k0 < kb; k0 = nextMinLive(tab, row, k0+1, kb) {
		k1 := nextMinLive(tab, row, k0+1, kb)
		if k1 == kb {
			minProductRec1(dst, dsp, runAt(tab, rows, k0, j0, m), wr, tab[row+k0], w[i]*w[k0], int32(k0))
			return
		}
		minProductRec2(dst, dsp, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m), wr,
			tab[row+k0], tab[row+k1], w[i]*w[k0], w[i]*w[k1], int32(k0), int32(k1))
		k0 = k1
	}
}

// The recording passes take the better of a pair first — the smaller
// split on a tie — and fold that one candidate into the cell: the value
// and split two ascending one-split folds would leave. A split is lowered
// on a tie when the recorded one is -1 or larger, which is one unsigned
// compare since splits are non-negative.

func minProductRec1(dst []cost.Cost, dsp []int32, src, wr []cost.Cost, l, s cost.Cost, q int32) {
	dsp, src, wr = dsp[:len(dst)], src[:len(dst)], wr[:len(dst)]
	for t := range dst {
		v := l + s*wr[t] + src[t]
		if v < dst[t] {
			dst[t], dsp[t] = v, q
		} else if v == dst[t] && v < posInf && uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

func minProductRec2(dst []cost.Cost, dsp []int32, src0, src1, wr []cost.Cost, l0, l1, s0, s1 cost.Cost, q0, q1 int32) {
	dsp, src0, src1, wr = dsp[:len(dst)], src0[:len(dst)], src1[:len(dst)], wr[:len(dst)]
	for t := range dst {
		wj := wr[t]
		v, q := l0+s0*wj+src0[t], q0
		if v1 := l1 + s1*wj + src1[t]; v1 < v {
			v, q = v1, q1
		}
		if v < dst[t] {
			dst[t], dsp[t] = v, q
		} else if v == dst[t] && v < posInf && uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

// FoldBareRun is the min-plus F-free body: c(i,j) = min(c(i,j),
// c(i,k) + c(k,j)), the raw-add discipline of FoldSplitRow with f = 0.
func (MinPlus) FoldBareRun(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	for k0 := nextMinLive(tab, row, ka, kb); k0 < kb; k0 = nextMinLive(tab, row, k0+1, kb) {
		k1 := nextMinLive(tab, row, k0+1, kb)
		if k1 == kb {
			minBare1(dst, runAt(tab, rows, k0, j0, m), tab[row+k0])
			return
		}
		minBare2(dst, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m), tab[row+k0], tab[row+k1])
		k0 = k1
	}
}

func minBare1(dst, src []cost.Cost, l cost.Cost) {
	src = src[:len(dst)]
	for t := range dst {
		if v := l + src[t]; v < dst[t] {
			dst[t] = v
		}
	}
}

func minBare2(dst, src0, src1 []cost.Cost, l0, l1 cost.Cost) {
	src0, src1 = src0[:len(dst)], src1[:len(dst)]
	for t := range dst {
		if v := min(l0+src0[t], l1+src1[t]); v < dst[t] {
			dst[t] = v
		}
	}
}

// FoldBareRunRec is FoldBareRun with split recording, under
// FoldSplitPanelRec's tie discipline.
func (MinPlus) FoldBareRunRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst, dsp := tab[row+j0:row+j0+m], spl[row+j0:row+j0+m]
	for k0 := nextMinLive(tab, row, ka, kb); k0 < kb; k0 = nextMinLive(tab, row, k0+1, kb) {
		k1 := nextMinLive(tab, row, k0+1, kb)
		if k1 == kb {
			minBareRec1(dst, dsp, runAt(tab, rows, k0, j0, m), tab[row+k0], int32(k0))
			return
		}
		minBareRec2(dst, dsp, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m),
			tab[row+k0], tab[row+k1], int32(k0), int32(k1))
		k0 = k1
	}
}

func minBareRec1(dst []cost.Cost, dsp []int32, src []cost.Cost, l cost.Cost, q int32) {
	dsp, src = dsp[:len(dst)], src[:len(dst)]
	for t := range dst {
		v := l + src[t]
		if v < dst[t] {
			dst[t], dsp[t] = v, q
		} else if v == dst[t] && v < posInf && uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

func minBareRec2(dst []cost.Cost, dsp []int32, src0, src1 []cost.Cost, l0, l1 cost.Cost, q0, q1 int32) {
	dsp, src0, src1 = dsp[:len(dst)], src0[:len(dst)], src1[:len(dst)]
	for t := range dst {
		v, q := l0+src0[t], q0
		if v1 := l1 + src1[t]; v1 < v {
			v, q = v1, q1
		}
		if v < dst[t] {
			dst[t], dsp[t] = v, q
		} else if v == dst[t] && v < posInf && uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

// nextMaxLive returns the first k in [k, kb) with a present max-plus
// left factor tab[row+k], or kb.
func nextMaxLive(tab []cost.Cost, row, k, kb int) int {
	for k < kb && tab[row+k] <= negInf {
		k++
	}
	return k
}

// FoldProductRun is the max-plus product body, pruning the right factor
// at -Inf as FoldSplitRow does (f, being in [0, Inf), never is).
func (MaxPlus) FoldProductRun(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, w []cost.Cost) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst, wr := tab[row+j0:row+j0+m], w[j0:j0+m]
	for k0 := nextMaxLive(tab, row, ka, kb); k0 < kb; k0 = nextMaxLive(tab, row, k0+1, kb) {
		k1 := nextMaxLive(tab, row, k0+1, kb)
		if k1 == kb {
			maxProduct1(dst, runAt(tab, rows, k0, j0, m), wr, tab[row+k0], w[i]*w[k0])
			return
		}
		maxProduct2(dst, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m), wr,
			tab[row+k0], tab[row+k1], w[i]*w[k0], w[i]*w[k1])
		k0 = k1
	}
}

// The max-plus passes must prune an absent right factor: -Inf plus a
// large finite left factor lands inside the finite range. A pruned
// candidate becomes -Inf, which no cell (>= -Inf) takes or ties.

// maxCand is the max-plus candidate l + f + r, or -Inf when r is absent.
func maxCand(l, f, r cost.Cost) cost.Cost {
	v := l + f + r
	if r <= negInf {
		v = negInf
	}
	return v
}

func maxProduct1(dst, src, wr []cost.Cost, l, s cost.Cost) {
	src, wr = src[:len(dst)], wr[:len(dst)]
	for t := range dst {
		if v := maxCand(l, s*wr[t], src[t]); v > dst[t] {
			dst[t] = v
		}
	}
}

func maxProduct2(dst, src0, src1, wr []cost.Cost, l0, l1, s0, s1 cost.Cost) {
	src0, src1, wr = src0[:len(dst)], src1[:len(dst)], wr[:len(dst)]
	for t := range dst {
		wj := wr[t]
		if v := max(maxCand(l0, s0*wj, src0[t]), maxCand(l1, s1*wj, src1[t])); v > dst[t] {
			dst[t] = v
		}
	}
}

// FoldProductRunRec is FoldProductRun with split recording, under
// FoldSplitPanelRec's tie discipline.
func (MaxPlus) FoldProductRunRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, w []cost.Cost) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst, dsp, wr := tab[row+j0:row+j0+m], spl[row+j0:row+j0+m], w[j0:j0+m]
	for k0 := nextMaxLive(tab, row, ka, kb); k0 < kb; k0 = nextMaxLive(tab, row, k0+1, kb) {
		k1 := nextMaxLive(tab, row, k0+1, kb)
		if k1 == kb {
			maxProductRec1(dst, dsp, runAt(tab, rows, k0, j0, m), wr, tab[row+k0], w[i]*w[k0], int32(k0))
			return
		}
		maxProductRec2(dst, dsp, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m), wr,
			tab[row+k0], tab[row+k1], w[i]*w[k0], w[i]*w[k1], int32(k0), int32(k1))
		k0 = k1
	}
}

func maxProductRec1(dst []cost.Cost, dsp []int32, src, wr []cost.Cost, l, s cost.Cost, q int32) {
	dsp, src, wr = dsp[:len(dst)], src[:len(dst)], wr[:len(dst)]
	for t := range dst {
		v := maxCand(l, s*wr[t], src[t])
		if v > dst[t] {
			dst[t], dsp[t] = v, q
		} else if v == dst[t] && v > negInf && uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

func maxProductRec2(dst []cost.Cost, dsp []int32, src0, src1, wr []cost.Cost, l0, l1, s0, s1 cost.Cost, q0, q1 int32) {
	dsp, src0, src1, wr = dsp[:len(dst)], src0[:len(dst)], src1[:len(dst)], wr[:len(dst)]
	for t := range dst {
		wj := wr[t]
		v, q := maxCand(l0, s0*wj, src0[t]), q0
		if v1 := maxCand(l1, s1*wj, src1[t]); v1 > v {
			v, q = v1, q1
		}
		if v > dst[t] {
			dst[t], dsp[t] = v, q
		} else if v == dst[t] && v > negInf && uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

// nextBoolLive returns the first k in [k, kb) with a true bool-plan
// left factor tab[row+k], or kb.
func nextBoolLive(tab []cost.Cost, row, k, kb int) int {
	for k < kb && tab[row+k] == 0 {
		k++
	}
	return k
}

// FoldBareRun is the bool-plan F-free body: turn on every off cell of
// the run with a feasible right factor.
func (BoolPlan) FoldBareRun(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst := tab[row+j0 : row+j0+m]
	for k0 := nextBoolLive(tab, row, ka, kb); k0 < kb; k0 = nextBoolLive(tab, row, k0+1, kb) {
		k1 := nextBoolLive(tab, row, k0+1, kb)
		if k1 == kb {
			boolBare1(dst, runAt(tab, rows, k0, j0, m))
			return
		}
		boolBare2(dst, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m))
		k0 = k1
	}
}

func boolBare1(dst, src []cost.Cost) {
	src = src[:len(dst)]
	for t := range dst {
		if dst[t] == 0 && src[t] != 0 {
			dst[t] = 1
		}
	}
}

func boolBare2(dst, src0, src1 []cost.Cost) {
	src0, src1 = src0[:len(dst)], src1[:len(dst)]
	for t := range dst {
		if dst[t] == 0 && (src0[t] != 0 || src1[t] != 0) {
			dst[t] = 1
		}
	}
}

// FoldBareRunRec is FoldBareRun with split recording, under
// FoldSplitPanelRec's tie discipline: an on cell still takes a feasible
// smaller split than the one it records.
func (BoolPlan) FoldBareRunRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int) {
	if m <= 0 {
		return
	}
	row := rows.Org(i)
	dst, dsp := tab[row+j0:row+j0+m], spl[row+j0:row+j0+m]
	for k0 := nextBoolLive(tab, row, ka, kb); k0 < kb; k0 = nextBoolLive(tab, row, k0+1, kb) {
		k1 := nextBoolLive(tab, row, k0+1, kb)
		if k1 == kb {
			boolBareRec1(dst, dsp, runAt(tab, rows, k0, j0, m), int32(k0))
			return
		}
		boolBareRec2(dst, dsp, runAt(tab, rows, k0, j0, m), runAt(tab, rows, k1, j0, m), int32(k0), int32(k1))
		k0 = k1
	}
}

func boolBareRec1(dst []cost.Cost, dsp []int32, src []cost.Cost, q int32) {
	dsp, src = dsp[:len(dst)], src[:len(dst)]
	for t := range dst {
		if src[t] == 0 {
			continue
		}
		if dst[t] == 0 {
			dst[t], dsp[t] = 1, q
		} else if uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}

func boolBareRec2(dst []cost.Cost, dsp []int32, src0, src1 []cost.Cost, q0, q1 int32) {
	dsp, src0, src1 = dsp[:len(dst)], src0[:len(dst)], src1[:len(dst)]
	for t := range dst {
		q := q0
		if src0[t] == 0 {
			if src1[t] == 0 {
				continue
			}
			q = q1
		}
		if dst[t] == 0 {
			dst[t], dsp[t] = 1, q
		} else if uint32(dsp[t]) > uint32(q) {
			dsp[t] = q
		}
	}
}
