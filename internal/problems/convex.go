package problems

import (
	"fmt"
	"math/rand"

	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// RandomConvex returns a random instance that provably satisfies the
// Knuth–Yao conditions (declared via Instance.Convex): the weight is
//
//	w(i,j) = sum of dens(a,b) over all pairs i <= a < b <= j
//
// for a nonnegative random density dens, with init(i) = w(i,i+1) =
// dens(i,i+1). Every density entry is counted once per interval that
// contains its pair, so for i <= i' <= j <= j' the quadrangle slack
//
//	w(i,j') + w(i',j) - w(i,j) - w(i',j')
//
// is the density mass of pairs inside [i,j'] but inside neither [i,j]
// nor [i',j'] — nonnegative by construction (strictly positive whenever
// such a pair carries mass, which exercises the strict branch of the
// pruning window), and w is monotone on interval inclusion for the same
// counting reason. Roughly half the density entries are zeroed so equal
// weights — and therefore split ties — occur, exercising the smallest-k
// tie discipline too.
//
// F is O(1) via a 2D suffix-prefix table P(x,y) = w(x,y), built in
// O(n^2) memory — use OBST families for benchmark-scale convex
// instances; this generator exists to fuzz and law-check the convex
// machinery with weights that are not OBST-shaped.
func RandomConvex(n, maxD int, seed int64) *recurrence.Instance {
	if n < 1 || maxD < 0 {
		panic("problems: RandomConvex needs n >= 1 and maxD >= 0")
	}
	rng := rand.New(rand.NewSource(seed))
	size := n + 1
	dens := make([]int64, size*size)
	flat := make([]int64, 0, size*(size-1)/2)
	for a := 0; a < size; a++ {
		for b := a + 1; b < size; b++ {
			var d int64
			if rng.Intn(2) == 0 {
				d = int64(rng.Intn(maxD + 1))
			}
			dens[a*size+b] = d
			flat = append(flat, d)
		}
	}
	// w[x*size+y] = sum of dens(a,b) over x <= a < b <= y, by 2D
	// inclusion-exclusion from the corner (x,y) inward.
	w := make([]int64, size*size)
	for x := size - 2; x >= 0; x-- {
		for y := x + 1; y < size; y++ {
			v := dens[x*size+y] + w[(x+1)*size+y]
			if y > x+1 {
				v += w[x*size+y-1] - w[(x+1)*size+y-1]
			}
			w[x*size+y] = v
		}
	}
	return &recurrence.Instance{
		N:      n,
		Name:   fmt.Sprintf("convex-rand-n%d-s%d", n, seed),
		Convex: true,
		Canon:  func() []byte { return canon("convexrand", flat) },
		Init:   func(i int) cost.Cost { return cost.Cost(w[i*size+i+1]) },
		F:      func(i, k, j int) cost.Cost { return cost.Cost(w[i*size+j]) },
		FSpan:  func(i, j int) cost.Cost { return cost.Cost(w[i*size+j]) },
	}
}
