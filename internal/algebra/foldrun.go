package algebra

import "sublineardp/internal/cost"

// FoldRun folds the chain candidates Extend(prefix[t], row[t]) of one
// destination index into its running best in ascending t, where t
// stands for the predecessor k = lo+t, and returns the new best and its
// predecessor. Strict improvement takes k, so a tie keeps the smaller
// k already held; best advances by Combine, not replacement, so the
// fold matches the bulk kernels bitwise even for non-selective
// algebras. Folding a window in consecutive runs, in ascending k, gives
// exactly the result of folding it in one run, which is what lets the
// sequential chain scan and the tiled chain engine share this loop.
//
// The loop is spelled out per shipped kernel so that its
// Extend/Better/Combine are static calls the compiler inlines; through
// the Kernel interface (or a type parameter, which go1.24 does not
// devirtualise) they cost three indirect calls per candidate.
func FoldRun(k Kernel, prefix, row []cost.Cost, lo int, best cost.Cost, bestK int32) (cost.Cost, int32) {
	prefix = prefix[:len(row)]
	switch k := k.(type) {
	case MinPlus:
		for t, f := range row {
			v := k.Extend(prefix[t], f)
			if k.Better(v, best) {
				bestK = int32(lo + t)
			}
			best = k.Combine(best, v)
		}
	case MaxPlus:
		for t, f := range row {
			v := k.Extend(prefix[t], f)
			if k.Better(v, best) {
				bestK = int32(lo + t)
			}
			best = k.Combine(best, v)
		}
	case BoolPlan:
		for t, f := range row {
			v := k.Extend(prefix[t], f)
			if k.Better(v, best) {
				bestK = int32(lo + t)
			}
			best = k.Combine(best, v)
		}
	default:
		for t, f := range row {
			v := k.Extend(prefix[t], f)
			if k.Better(v, best) {
				bestK = int32(lo + t)
			}
			best = k.Combine(best, v)
		}
	}
	return best, bestK
}
