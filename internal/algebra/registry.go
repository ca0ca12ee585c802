package algebra

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sublineardp/internal/cost"
)

var registry = struct {
	sync.RWMutex
	m map[string]Kernel
}{m: map[string]Kernel{
	NameMinPlus:  MinPlus{},
	NameMaxPlus:  MaxPlus{},
	NameBoolPlan: BoolPlan{},
}}

// Register adds a third-party algebra to the registry under sr.Name(),
// first validating the idempotent-semiring axioms with CheckLaws — a
// broken algebra is rejected here, before any solver can silently
// mis-solve under it. It rejects nil semirings, empty names and
// duplicates (the shipped algebras cannot be replaced).
func Register(sr Semiring) error {
	if sr == nil || sr.Name() == "" {
		return fmt.Errorf("algebra: Register needs a non-nil semiring with a non-empty name")
	}
	// A NUL in the name would break the injectivity of the canonical
	// "alg\x00<name>\x00<canon>" tagging (recurrence.Instance.Canonical):
	// ("x", "y\x00"+C) and ("x\x00y", C) would share bytes, letting two
	// (algebra, instance) pairs alias one cache entry.
	if strings.ContainsRune(sr.Name(), 0) {
		return fmt.Errorf("algebra: name %q must not contain NUL", sr.Name())
	}
	if err := CheckLaws(sr); err != nil {
		return fmt.Errorf("algebra: %q fails the semiring laws: %w", sr.Name(), err)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[sr.Name()]; dup {
		return fmt.Errorf("algebra: %q already registered", sr.Name())
	}
	registry.m[sr.Name()] = Promote(sr)
	return nil
}

// Lookup returns the algebra registered under name. The empty name
// resolves to min-plus, the paper's algebra and the default everywhere.
func Lookup(name string) (Kernel, bool) {
	if name == "" {
		return MinPlus{}, true
	}
	registry.RLock()
	defer registry.RUnlock()
	k, ok := registry.m[name]
	return k, ok
}

// Names returns the sorted names of every registered algebra.
func Names() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	registry.RUnlock()
	sort.Strings(names)
	return names
}

// Resolve picks the algebra one solve runs under: an explicit override
// first, then the instance's declared algebra name, else min-plus. An
// unregistered instance algebra is an error — it means the caller built
// an instance this process cannot interpret.
func Resolve(override Semiring, instanceAlgebra string) (Kernel, error) {
	if override != nil {
		return Promote(override), nil
	}
	k, ok := Lookup(instanceAlgebra)
	if !ok {
		return nil, fmt.Errorf("algebra: instance declares unregistered algebra %q (registered: %v)",
			instanceAlgebra, Names())
	}
	return k, nil
}

// ResolveName returns the name of the algebra Resolve would pick,
// without requiring it to be registered — the spelling cache keys and
// response metadata use.
func ResolveName(override Semiring, instanceAlgebra string) string {
	if override != nil {
		return override.Name()
	}
	if instanceAlgebra == "" {
		return NameMinPlus
	}
	return instanceAlgebra
}

// Promote upgrades a scalar Semiring to the engine-facing Kernel: an
// algebra that already implements Kernel (the shipped ones, or a
// third-party algebra with specialised primitives) passes through;
// anything else is wrapped with generic derivations of the comparison
// helpers and bulk loops. The derived kernel is correct for any lawful
// semiring, just not specialised.
func Promote(sr Semiring) Kernel {
	if k, ok := sr.(Kernel); ok {
		return k
	}
	return derived{sr}
}

// derived implements Kernel over a bare Semiring via its scalar
// operations. Better is the definitional Combine(a,b) != b; Norm assumes
// the semiring's values are already canonical.
type derived struct{ Semiring }

func (d derived) Better(a, b cost.Cost) bool { return d.Combine(a, b) != b }
func (d derived) IsZero(v cost.Cost) bool    { return v == d.Zero() }
func (d derived) Norm(v cost.Cost) cost.Cost { return v }
func (d derived) Extend3(a, b, c cost.Cost) cost.Cost {
	return d.Extend(a, d.Extend(b, c))
}

func (d derived) Relax2(best, a, b cost.Cost) cost.Cost {
	return d.Combine(best, d.Extend(a, b))
}

func (d derived) Relax3(best, f, l, r cost.Cost) cost.Cost {
	return d.Combine(best, d.Extend(f, d.Extend(l, r)))
}

func (d derived) RelaxAt(buf []cost.Cost, c int, f, w cost.Cost) bool {
	if v := d.Extend(f, w); d.Better(v, buf[c]) {
		buf[c] = v
		return true
	}
	return false
}

func (d derived) RelaxPanel(dst, src []cost.Cost, base []int, p Panel) {
	relaxPanelGeneric(d, dst, src, base, p)
}

func (d derived) RelaxRows(dst, src []cost.Cost, m, cnt0, cntInc, s1, s1Step, dStart, dStep, sStart, sStep, stride int) {
	relaxPanelGeneric(d, dst, src, nil, Panel{
		M: m, Cnt0: cnt0, CntInc: cntInc,
		S1: s1, S1Step: s1Step,
		D: dStart, DStartStep: dStep, DStep: stride,
		S: sStart, SStartStep: sStep, SStep: stride,
	})
}

func (d derived) ReduceRelax(best cost.Cost, a, b []cost.Cost, sh ReduceShape) cost.Cost {
	return reduceRelaxGeneric(d, best, a, b, sh)
}

func (d derived) FoldSplitPanel(tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	foldSplitPanelGeneric(d, tab, rows, i, ka, kb, j0, m, f)
}

func (d derived) FoldSplitRow(tab []cost.Cost, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	foldSplitRowGeneric(d, tab, rows, i, k, j0, m, fRow)
}

func (d derived) FoldSplitPanelRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	foldSplitPanelRecGeneric(d, tab, spl, rows, i, ka, kb, j0, m, f)
}

func (d derived) FoldSplitRowRec(tab []cost.Cost, spl []int32, rows Rows, i, k, j0, m int, fRow []cost.Cost) {
	foldSplitRowRecGeneric(d, tab, spl, rows, i, k, j0, m, fRow)
}

func (d derived) FoldSplitCellRec(tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j int, f SplitFunc) {
	foldSplitPanelRecGeneric(d, tab, spl, rows, i, ka, kb, j, 1, f)
}

func (d derived) RelaxSplitPanelRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j0, m int, f SplitFunc) {
	d.FoldSplitPanelRec(tab, spl, Rows{Step: stride}, i, ka, kb, j0, m, f)
}

func (d derived) RelaxSplitRowRec(tab []cost.Cost, spl []int32, stride, i, k, j0, m int, fRow []cost.Cost) {
	d.FoldSplitRowRec(tab, spl, Rows{Step: stride}, i, k, j0, m, fRow)
}

func (d derived) RelaxSplitCellRec(tab []cost.Cost, spl []int32, stride, i, ka, kb, j int, f SplitFunc) {
	d.FoldSplitCellRec(tab, spl, Rows{Step: stride}, i, ka, kb, j, f)
}

// relaxPanelGeneric is the reference panel walk every specialised
// RelaxPanel must agree with (the algebra package tests pin the shipped
// ones against it).
func relaxPanelGeneric(k Kernel, dst, src []cost.Cost, base []int, p Panel) {
	s1i, s1Step := p.S1, p.S1Step
	dStart, dStartStep := p.D, p.DStartStep
	dStep0 := p.DStep
	sStart := p.S
	bi := p.BaseIdx
	cnt := p.Cnt0
	for u := 0; u < p.M; u++ {
		if cnt > 0 {
			if s1 := src[s1i]; !k.IsZero(s1) {
				d, dStep := dStart, dStep0
				s, sStep := sStart, p.SStep
				if base != nil {
					s += base[bi]
				}
				for t := 0; t < cnt; t++ {
					if v := k.Extend(s1, src[s]); k.Better(v, dst[d]) {
						dst[d] = v
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

// foldSplitPanelGeneric is the reference walk every specialised
// FoldSplitPanel must agree with: candidates fold in the sequential
// solver's order Extend3(f, left, right), so a non-commutative Extend
// still observes exactly what seq.SolveSemiringCtx computes.
func foldSplitPanelGeneric(k Kernel, tab []cost.Cost, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	row := rows.Org(i)
	for s := ka; s < kb; s++ {
		left := tab[row+s]
		if k.IsZero(left) {
			continue
		}
		for t := 0; t < m; t++ {
			j := j0 + t
			if v := k.Extend3(f(i, s, j), left, tab[rows.Org(s)+j]); k.Better(v, tab[row+j]) {
				tab[row+j] = v
			}
		}
	}
}

// foldSplitRowGeneric is the reference walk of the pre-evaluated form.
func foldSplitRowGeneric(k Kernel, tab []cost.Cost, rows Rows, i, s, j0, m int, fRow []cost.Cost) {
	row := rows.Org(i)
	left := tab[row+s]
	if k.IsZero(left) {
		return
	}
	for t := 0; t < m; t++ {
		j := j0 + t
		if v := k.Extend3(fRow[t], left, tab[rows.Org(s)+j]); k.Better(v, tab[row+j]) {
			tab[row+j] = v
		}
	}
}

// foldSplitPanelRecGeneric is the reference recording walk every
// specialised FoldSplitPanelRec must agree with (the algebra package
// tests pin the shipped ones against it). The tie clause — a candidate
// that neither improves nor is improved by the cell, and is not Zero,
// lowers the recorded split to min(current, k) — is what makes the
// result independent of candidate evaluation order; see the Kernel
// interface comment. With m = 1 it is also the reference of the
// clipped cell closure FoldSplitCellRec.
func foldSplitPanelRecGeneric(k Kernel, tab []cost.Cost, spl []int32, rows Rows, i, ka, kb, j0, m int, f SplitFunc) {
	row := rows.Org(i)
	for s := ka; s < kb; s++ {
		left := tab[row+s]
		if k.IsZero(left) {
			continue
		}
		for t := 0; t < m; t++ {
			j := j0 + t
			d := row + j
			v := k.Extend3(f(i, s, j), left, tab[rows.Org(s)+j])
			if k.Better(v, tab[d]) {
				tab[d] = v
				spl[d] = int32(s)
			} else if !k.Better(tab[d], v) && !k.IsZero(v) {
				if cur := spl[d]; cur < 0 || int32(s) < cur {
					spl[d] = int32(s)
				}
			}
		}
	}
}

// foldSplitRowRecGeneric is the reference recording walk of the
// pre-evaluated form.
func foldSplitRowRecGeneric(k Kernel, tab []cost.Cost, spl []int32, rows Rows, i, s, j0, m int, fRow []cost.Cost) {
	row := rows.Org(i)
	left := tab[row+s]
	if k.IsZero(left) {
		return
	}
	for t := 0; t < m; t++ {
		j := j0 + t
		d := row + j
		v := k.Extend3(fRow[t], left, tab[rows.Org(s)+j])
		if k.Better(v, tab[d]) {
			tab[d] = v
			spl[d] = int32(s)
		} else if !k.Better(tab[d], v) && !k.IsZero(v) {
			if cur := spl[d]; cur < 0 || int32(s) < cur {
				spl[d] = int32(s)
			}
		}
	}
}

// reduceRelaxGeneric is the reference reduction walk.
func reduceRelaxGeneric(k Kernel, best cost.Cost, a, b []cost.Cost, sh ReduceShape) cost.Cost {
	aStart, aStartStep := sh.A, sh.AStartStep
	bStart := sh.B
	cnt := sh.Cnt0
	for u := 0; u < sh.M; u++ {
		ai, bi := aStart, bStart
		for t := 0; t < cnt; t++ {
			best = k.Relax2(best, a[ai], b[bi])
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
