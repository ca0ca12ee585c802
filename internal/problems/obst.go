package problems

import (
	"fmt"
	"math/rand"

	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// OBST returns the optimal binary search tree instance in Knuth's
// formulation with m keys and m+1 gaps. beta[t] is the access weight of
// key t+1 (len m) and alpha[g] the weight of the gap/dummy g (len m+1).
//
// Mapping onto recurrence (*): the instance has N = m+1 objects (the
// gaps). Leaf (i,i+1) is gap i with init(i) = alpha[i]. Internal node
// (i,j) is the subtree holding keys i+1..j-1 and gaps i..j-1; choosing
// split k makes key k the root, and
//
//	f(i,k,j) = W(i,j) = sum(beta over keys i+1..j-1) + sum(alpha over gaps i..j-1)
//
// independently of k — summing f over all internal nodes plus init over
// leaves charges every key and gap once per tree level, which is the
// node-counting weighted path length sum((depth+1)*beta) +
// sum((depth+1)*alpha) that OBST minimises (Knuth's objective up to the
// constant sum(alpha)).
func OBST(alpha, beta []int64) *recurrence.Instance {
	m := len(beta)
	if len(alpha) != m+1 {
		panic(fmt.Sprintf("problems: OBST needs len(alpha) == len(beta)+1, got %d and %d", len(alpha), len(beta)))
	}
	for _, v := range alpha {
		if v < 0 {
			panic("problems: negative alpha weight")
		}
	}
	for _, v := range beta {
		if v < 0 {
			panic("problems: negative beta weight")
		}
	}
	// Prefix sums so that f is O(1).
	// betaPre[t] = beta[0]+..+beta[t-1]; alphaPre[g] = alpha[0]+..+alpha[g-1].
	betaPre := make([]int64, m+1)
	for t := 0; t < m; t++ {
		betaPre[t+1] = betaPre[t] + beta[t]
	}
	alphaPre := make([]int64, m+2)
	for g := 0; g <= m; g++ {
		alphaPre[g+1] = alphaPre[g] + alpha[g]
	}
	// Init and Canon share one snapshot of the weights, so caller
	// mutation after construction cannot desynchronise the cache key
	// from behaviour (F already reads only the prefix sums above).
	alphaC := append([]int64(nil), alpha...)
	betaC := append([]int64(nil), beta...)
	// Keys i+1..j-1 are beta indices i..j-2; gaps i..j-1 are alpha
	// indices i..j-1.
	weight := func(i, j int) cost.Cost {
		return cost.Cost((betaPre[j-1] - betaPre[i]) + (alphaPre[j] - alphaPre[i]))
	}
	return &recurrence.Instance{
		N:    m + 1,
		Name: fmt.Sprintf("obst-m%d", m),
		// f = W(i,j) is k-independent, W(i,i+1) = alpha[i] = init(i), and
		// W is a sum of nonnegative weights over the keys and gaps of
		// [i,j] — additive over interval contents, hence monotone and
		// quadrangle-convex (with equality). That is exactly the Knuth–Yao
		// precondition, so the pruned engines may trust the declaration.
		Convex: true,
		Canon:  func() []byte { return canon("obst", alphaC, betaC) },
		Init:   func(i int) cost.Cost { return cost.Cost(alphaC[i]) },
		// F repeats weight's sum rather than calling it: blocked-ky
		// evaluates F once per candidate.
		F: func(i, k, j int) cost.Cost {
			return cost.Cost((betaPre[j-1] - betaPre[i]) + (alphaPre[j] - alphaPre[i]))
		},
		FSpan: weight,
	}
}

// RandomOBST returns an OBST instance with m keys whose alpha and beta
// weights are drawn uniformly from [0, maxW] with the given seed.
func RandomOBST(m, maxW int, seed int64) *recurrence.Instance {
	if m < 1 || maxW < 0 {
		panic("problems: RandomOBST needs m >= 1 and maxW >= 0")
	}
	rng := rand.New(rand.NewSource(seed))
	alpha := make([]int64, m+1)
	beta := make([]int64, m)
	for i := range alpha {
		alpha[i] = int64(rng.Intn(maxW + 1))
	}
	for i := range beta {
		beta[i] = int64(rng.Intn(maxW + 1))
	}
	in := OBST(alpha, beta)
	in.Name = fmt.Sprintf("obst-rand-m%d-s%d", m, seed)
	return in
}

// KnuthExampleOBST returns the worked example from Knuth's 1971 paper
// "Optimum binary search trees" scaled to integers: keys with
// probabilities proportional to the classic (beta; alpha) frequencies.
// Used as a golden test together with the brute-force optimum.
func KnuthExampleOBST() *recurrence.Instance {
	// Four keys; weights in units of 1/16 from the standard textbook
	// variant: beta = (4,2,6,3), alpha = (1,0,0,0,... ) -- we use a fixed
	// small example whose optimum is brute-force checkable.
	alpha := []int64{1, 2, 1, 0, 1}
	beta := []int64{4, 2, 6, 3}
	in := OBST(alpha, beta)
	in.Name = "obst-knuth-example"
	return in
}
