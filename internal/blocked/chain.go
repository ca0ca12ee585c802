// The tiled chain engine: the 1-D form of the interval tile graph.
//
// A chain c(j) = Combine_{Lo(j) <= k < j} Extend(c(k), F(k,j)) has one
// dependency order, k < j, so cutting 0..N into blocks of B leaves two
// kinds of unit:
//
//   - panel (J,K), K < J: fold every candidate k of block K that j's
//     window admits into every j of block J — one F run per j,
//     evaluated through Chain.FRow (per candidate through F only when
//     the chain has none) and folded by algebra.FoldRun;
//   - close J: fold block J's own triangle in ascending j, then c(j)
//     and its predecessor are final.
//
// Edges: panel (J,K) waits on close K and on panel (J,K−1); close J
// waits on panel (J,J−1). Each j of block J therefore sees its
// candidates block by block in ascending K and, within a block, in
// ascending k — exactly the sequential scan's order — so the values and
// the smallest-k predecessors are bitwise the sequential engine's under
// every algebra. The running best of j lives in the result vector
// itself until close J finalises it, since no task reads it earlier.
//
// A panel holds about B² candidates and a close B²/2, so the critical
// path close 0 → panel (1,0) → close 1 → … costs about 1.5·n·B
// candidate folds against n²/2 of work: the parallelism is about
// n/(3B). A windowed chain has no panel (J,K) whose block K lies wholly
// below the window of J's first index.
package blocked

import (
	"context"
	"runtime"
	"sync/atomic"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/recurrence"
)

// The auto block edge of the tiled chain engine lies in
// [minChainTile, maxChainTile]; see chainTileSize.
const (
	minChainTile = 32
	maxChainTile = 128
)

// ChainResult is a tiled chain solve.
type ChainResult struct {
	// Values is the converged vector c(0..N).
	Values *recurrence.Vector
	// Preds holds the smallest-k optimal predecessor of every index: -1
	// for c(0) and for indices no candidate reaches.
	Preds []int32
	// Work counts candidate folds: every pair the windows admit.
	Work int64
}

// SolveChainCtx runs the tiled chain engine on the pool's task graph. It
// folds every candidate the windows admit: the chain's Support, if any,
// is not consulted (a support fold is O(n·support) and sequential by
// nature, so callers route such chains to the sequential scan). The
// context is polled once per task; a cancelled or expired context
// aborts with a nil result and ctx.Err(). Options.TileSize is the block
// edge B (see chainTileSize); Options.RecordSplits does not apply.
func SolveChainCtx(ctx context.Context, c *recurrence.Chain, opt Options) (*ChainResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k, err := algebra.Resolve(opt.Semiring, c.Algebra)
	if err != nil {
		return nil, err
	}
	pool := opt.Pool
	if pool == nil {
		pool = parutil.Default()
	}
	b := chainTileSize(c.N, opt.TileSize, ChainWorkers(pool, opt.Workers))
	s := newChainSolve(ctx, c, k, b)
	if err := pool.RunGraph(ctx, opt.Workers, nil, func(g *parutil.TaskGraph) { s.submitClose(g, 0) }); err != nil {
		return nil, err
	}
	return &ChainResult{Values: s.vec, Preds: s.preds, Work: s.work.Load()}, nil
}

// chainSolve is one tiled chain solve's graph state. Close J runs with
// Arg J, panel (J,K) with Arg nb + J·nb + K.
type chainSolve struct {
	c      *recurrence.Chain
	k      algebra.Kernel
	ctx    context.Context
	b, nb  int
	vec    *recurrence.Vector
	values []cost.Cost
	preds  []int32
	// kFirst[J] is the first block holding a candidate of block J's
	// first index; block J's panels are K = kFirst[J] .. J−1, stored
	// from panelBase[J] on.
	kFirst    []int
	panelBase []int
	closes    []parutil.Task
	panels    []parutil.Task
	// deps counts each panel's unfinished predecessors: close K, and
	// panel (J,K−1) unless K is J's first panel.
	deps []atomic.Int32
	work atomic.Int64
}

func newChainSolve(ctx context.Context, c *recurrence.Chain, k algebra.Kernel, b int) *chainSolve {
	n := c.N
	nb := (n + b) / b
	s := &chainSolve{
		c: c, k: k, ctx: ctx, b: b, nb: nb,
		vec:       recurrence.NewVector(n),
		preds:     make([]int32, n+1),
		kFirst:    make([]int, nb),
		panelBase: make([]int, nb),
	}
	s.values = s.vec.Data()
	s.values[0] = k.One()
	s.preds[0] = -1
	for j := 1; j <= n; j++ {
		s.values[j] = k.Zero()
		s.preds[j] = -1
	}
	panels := 0
	for J := 1; J < nb; J++ {
		s.kFirst[J] = c.Lo(J*b) / b
		s.panelBase[J] = panels
		panels += J - s.kFirst[J]
	}
	s.closes = make([]parutil.Task, nb)
	s.panels = make([]parutil.Task, panels)
	s.deps = make([]atomic.Int32, panels)
	for J := 1; J < nb; J++ {
		s.deps[s.panelBase[J]].Store(1)
		for p := s.panelBase[J] + 1; p < s.panelBase[J]+J-s.kFirst[J]; p++ {
			s.deps[p].Store(2)
		}
	}
	return s
}

// submitClose pushes close J onto the graph.
func (s *chainSolve) submitClose(g *parutil.TaskGraph, J int) {
	t := &s.closes[J]
	t.Runner, t.Arg = s, J
	g.Submit(t)
}

// resolvePanel retires one predecessor of panel (J,K) and submits the
// panel when it was the last.
func (s *chainSolve) resolvePanel(g *parutil.TaskGraph, J, K int) {
	p := s.panelBase[J] + K - s.kFirst[J]
	if s.deps[p].Add(-1) == 0 {
		t := &s.panels[p]
		t.Runner, t.Arg = s, s.nb+J*s.nb+K
		g.Submit(t)
	}
}

// RunTask runs close J or panel (J,K) and releases its successors. A
// task that finds the context cancelled does nothing and releases
// nothing, so the graph drains and RunGraph reports ctx.Err().
func (s *chainSolve) RunTask(g *parutil.TaskGraph, arg int) {
	if s.ctx.Err() != nil {
		return
	}
	fbuf := getFbuf(s.b)
	defer fbufPool.Put(fbuf)
	if arg < s.nb {
		J := arg
		s.fold(*fbuf, J, J)
		// Panel (J+1,J) heads the critical path: submit it last, so the
		// LIFO ready stack hands it out first.
		last := J
		for last+1 < s.nb && s.kFirst[last+1] <= J {
			last++
		}
		for J2 := last; J2 > J; J2-- {
			s.resolvePanel(g, J2, J)
		}
		return
	}
	J, K := (arg-s.nb)/s.nb, (arg-s.nb)%s.nb
	s.fold(*fbuf, J, K)
	if K+1 < J {
		s.resolvePanel(g, J, K+1)
	} else {
		s.submitClose(g, J)
	}
}

// fold folds the candidates of block K into every index of block J, in
// ascending j and, per j, ascending k: a panel for K < J, block J's own
// triangle for K = J.
func (s *chainSolve) fold(fbuf []cost.Cost, J, K int) {
	c, k, b := s.c, s.k, s.b
	jHi := min((J+1)*b, c.N+1)
	kLo, kHi := K*b, (K+1)*b
	var work int64
	for j := max(J*b, 1); j < jHi; j++ {
		lo, hi := max(c.Lo(j), kLo), min(kHi, j)
		if lo >= hi {
			continue
		}
		row := fbuf[:hi-lo]
		if c.FRow != nil {
			c.FRow(j, lo, row)
		} else {
			for t := range row {
				row[t] = c.F(lo+t, j) //lint:allow bulkonly per-candidate fallback when the chain supplies no FRow
			}
		}
		s.values[j], s.preds[j] = algebra.FoldRun(k, s.values[lo:hi], row, lo, s.values[j], s.preds[j])
		work += int64(hi - lo)
	}
	s.work.Add(work)
}

// chainTileSize resolves the block edge of a tiled chain solve of length
// n on procs processors. An explicit tile wins; otherwise B is about
// n/(8·procs), which leaves n/(3B) ≈ 2.7·procs-way parallelism, clamped
// to [32, 128]: smaller blocks cost more in task overhead than they add
// in balance, larger ones gain nothing. B is capped at n+1 (one block).
func chainTileSize(n, tile, procs int) int {
	b := tile
	if b <= 0 {
		b = min(max(n/(8*max(procs, 1)), minChainTile), maxChainTile)
	}
	return min(b, n+1)
}

// ChainWorkers is the drain width a tiled chain solve with the given
// Workers option gets on pool (nil = the shared pool): Workers, or the
// pool's width when it is 0, capped at GOMAXPROCS — the processors the
// task graph really runs on.
func ChainWorkers(pool *parutil.Pool, workers int) int {
	if workers <= 0 {
		if pool == nil {
			pool = parutil.Default()
		}
		workers = pool.Workers()
	}
	return min(workers, runtime.GOMAXPROCS(0))
}
