// Package sublineardp is a reproduction of
//
//	S.-H. S. Huang, H. Liu, V. Viswanathan:
//	"A sublinear parallel algorithm for some dynamic programming
//	problems" (ICPP 1990; Theoretical Computer Science 106, 1992).
//
// It solves dynamic-programming recurrences of the form
//
//	c(i,j) = min_{i<k<j} { c(i,k) + c(k,j) + f(i,k,j) },  c(i,i+1) = init(i)
//
// — matrix-chain multiplication, optimal binary search trees, optimal
// polygon triangulation — on a simulated CREW PRAM in O(sqrt(n) log n)
// parallel time with O(n^3.5/log n) processors, alongside the sequential
// O(n^3) baseline, the linear-time wavefront schedule, and Rytter's
// O(log^2 n)-time / O(n^6/log n)-processor algorithm that the paper
// improves upon.
//
// # Quick start
//
//	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
//	s, err := sublineardp.NewSolver(sublineardp.EngineHLVBanded)
//	if err != nil { ... }
//	sol, err := s.Solve(ctx, in)
//	if err != nil { ... }
//	fmt.Println("minimal multiplications:", sol.Cost())
//
// Every algorithm is an Engine behind the same context-aware Solver API
// and returns the same Solution type: "sequential" (the O(n^3) baseline,
// with O(n) tree reconstruction), "wavefront" (the span-parallel
// linear-time baseline), "rytter" (the 1988 O(log^2 n) baseline the
// paper improves on), "hlv-dense" (Sections 2-4), "hlv-banded" (the
// headline Section 5 variant), and "auto" (size-based selection).
// Engines are configured with functional options (WithWorkers,
// WithTermination, WithBandRadius, WithHistory, ...), honour context
// cancellation and deadlines mid-iteration, and custom engines can be
// added with RegisterEngine.
//
// # Algebras
//
// Every engine — including the banded tiled kernels — is generic over an
// idempotent semiring (internal/algebra): the recurrence's min and + are
// just Combine and Extend. Three algebras ship: min-plus (the paper's,
// the default), max-plus (worst-case parenthesization — see
// NewWorstCaseMatrixChain), and bool-plan (0/1 feasibility under
// forbidden splits — see NewForbiddenSplits). Select one per solve with
// WithSemiring, or build instances that declare their own algebra; the
// algebra is part of an instance's canonical identity, so caches never
// conflate a min-plus solution with a max-plus one. Third-party algebras
// register with RegisterSemiring, which validates the semiring axioms
// mechanically, and are then held to the same engine conformance matrix
// as the shipped ones.
//
// SolveBatch fans many instances across a worker pool with size-based
// engine auto-selection — the serving building block:
//
//	sols, err := sublineardp.SolveBatch(ctx, instances,
//	        sublineardp.WithConcurrency(8))
//
// cmd/dpserved serves all of this over HTTP/JSON behind a
// content-addressed response cache keyed by Instance.Canonical (see the
// README's Serving section); internal/wire defines the request/response
// format.
//
// The internal packages expose the full machinery: the pebbling game of
// Section 3 (Pebble* identifiers below), PRAM accounting, termination
// heuristics, and the experiment harness behind cmd/dpbench.
package sublineardp

import (
	"sublineardp/internal/btree"
	"sublineardp/internal/core"
	"sublineardp/internal/cost"
	"sublineardp/internal/pebble"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
)

// Core data types, re-exported from the internal packages.
type (
	// Instance is one problem of the recurrence family (*).
	Instance = recurrence.Instance
	// Table is the cost table c(i,j), stored as its packed upper triangle.
	Table = recurrence.Table
	// Cost is an exact integer dynamic-programming value.
	Cost = cost.Cost
	// Tree is a parenthesization tree over spans (i,j).
	Tree = btree.Tree
	// Point is a polygon vertex for triangulation instances.
	Point = problems.Point
)

// Inf is the "not yet computed / unreachable" cost sentinel.
const Inf = cost.Inf

// HLV update disciplines and stopping rules, re-exported for WithMode
// and WithTermination.
const (
	Synchronous     = core.Synchronous
	Chaotic         = core.Chaotic
	FixedIterations = core.FixedIterations
	WStable         = core.WStable
	WPWStable       = core.WPWStable
)

// NewMatrixChain returns the matrix-chain multiplication instance for
// matrices A_t of shape dims[t-1] x dims[t].
func NewMatrixChain(dims []int) *Instance { return problems.MatrixChain(dims) }

// NewOBST returns the optimal binary search tree instance with key
// weights beta (len m) and gap weights alpha (len m+1), in Knuth's
// formulation.
func NewOBST(alpha, beta []int64) *Instance { return problems.OBST(alpha, beta) }

// NewTriangulation returns the minimum-perimeter triangulation instance
// of the convex polygon with the given vertices.
func NewTriangulation(vs []Point) *Instance { return problems.Triangulation(vs) }

// NewWeightedTriangulation returns the vertex-weight-product
// triangulation instance (isomorphic to matrix-chain ordering).
func NewWeightedTriangulation(weights []int64) *Instance {
	return problems.WeightedTriangulation(weights)
}

// NewWorstCaseMatrixChain returns the max-plus twin of NewMatrixChain:
// the same decomposition costs, with the *costliest* parenthesization as
// the optimum — the adversarial bound on an uninformed evaluation order.
// The instance declares the max-plus algebra itself; no WithSemiring is
// needed, and its cache identity never collides with the min-plus twin.
func NewWorstCaseMatrixChain(dims []int) *Instance {
	return problems.WorstCaseMatrixChain(dims)
}

// NewForbiddenSplits returns the bool-plan feasibility family: does a
// parenthesization of n objects exist that never creates any of the
// forbidden subexpressions (i,j)? Solution.Cost is 1 when feasible, 0
// otherwise, and the sequential engine's Solution.Tree returns a witness
// parenthesization when one exists.
func NewForbiddenSplits(n int, forbidden [][2]int) *Instance {
	return problems.ForbiddenSplits(n, forbidden)
}

// NewShaped returns an instance whose unique optimal parenthesization is
// the given tree — the tool for driving the solver into best and worst
// cases (see ZigzagTree and CompleteTree).
func NewShaped(t *Tree) *Instance { return problems.Shaped(t) }

// Tree shape constructors (Figure 2 of the paper).
var (
	// ZigzagTree builds the Theta(sqrt n)-iteration worst case (Fig. 2a).
	ZigzagTree = btree.Zigzag
	// CompleteTree builds the balanced O(log n) easy case (Fig. 2b).
	CompleteTree = btree.Complete
	// SkewedTree builds the straight left spine (Fig. 2b).
	SkewedTree = btree.LeftSkewed
)

// PebbleRule selects the square move of the Section 3 pebbling game.
type PebbleRule = pebble.Rule

// Pebbling game rules.
const (
	// PebbleHLV descends one level per move (Lemma 3.3: 2*sqrt(n) moves).
	PebbleHLV = pebble.HLVRule
	// PebbleRytter is pointer doubling (O(log n) moves).
	PebbleRytter = pebble.RytterRule
)

// PebbleGame is a playable position of the Section 3 game.
type PebbleGame = pebble.Game

// NewPebbleGame starts the game on t: leaves pebbled, cond(x) = x.
func NewPebbleGame(t *Tree, rule PebbleRule) *PebbleGame {
	return pebble.NewGame(t, rule)
}

// PebbleBound returns the Lemma 3.3 move bound 2*ceil(sqrt(n)).
func PebbleBound(nLeaves int) int { return pebble.LemmaBound(nLeaves) }

// WorstCaseIterations returns the solver's fixed iteration budget for
// size n, the paper's 2*ceil(sqrt(n)).
func WorstCaseIterations(n int) int { return core.DefaultIterations(n) }

// ExtractTree reconstructs an optimal parenthesization from any converged
// cost table (for example Solution.Table of an HLV solve — the paper's
// algorithm computes values only; this recovers the solution). It fails
// if the table is not a fixed point of the recurrence, e.g. when a run
// was stopped before convergence.
func ExtractTree(in *Instance, t *Table) (*Tree, error) {
	return recurrence.ExtractTree(in, t)
}

// TreeCost evaluates the exact cost of one specific parenthesization
// under the instance (the paper's W(T)).
func TreeCost(in *Instance, t *Tree) Cost { return recurrence.TreeCost(in, t) }
