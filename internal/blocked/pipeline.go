// Pipelined (barrier-free) execution of the blocked schedule.
//
// The tile decomposition runs as a dependency graph (the per-tile
// counter construction of the GPU pipeline line, arXiv:2008.01938, with
// the nested-dataflow read-set analysis of arXiv:1911.05333 deciding
// which edges are real): each tile carries an atomic in-degree counter
// and is pushed onto a lock-free ready stack the instant the counter
// hits zero, so diagonals stream into each other and — because several
// solves may seed one shared graph — independent solves overlap on one
// pool, one solve's tail filling another's head.
//
// # Dependency edges
//
// Derived from the actual read sets of the units, not from a wavefront
// order. Tile (I,J) with block distance d = J−I reads:
//
//   - phase A (d ≥ 2): left factors c(i,k) with k strictly interior —
//     tiles (I,K), I < K < J — and right rows c(k,j) — tiles (K,J),
//     I < K < J;
//   - phase B closure: the block-I fold reads c(i,k) with i,k ∈ block I —
//     tile (I,I) — and the block-J sweep reads c(k,j) with k,j ∈ block
//     J — tile (J,J). (Its reads of tile (I,J) itself are intra-tile and
//     ordered by the closure's own row/column discipline.)
//   - the Knuth–Yao closure reads values in the same tiles, and splits
//     in (I,J−1), (I+1,J) and (I,J) itself — all covered.
//
// Union: (I,K) for I ≤ K < J and (K,J) for I < K ≤ J — exactly 2d
// predecessors, so deps[(I,J)] starts at 2d, every completed tile
// decrements its row to the right and its column upward, and the d = 0
// diagonal tiles seed the graph. This is strictly weaker than a
// wavefront's "whole diagonal d−1 first", which is why the schedule can
// pipeline at all.
//
// # Why the tables stay bitwise identical
//
// Reordering tiles cannot reorder the folds a given cell sees: a
// destination cell's every write happens inside exactly one tileSolver
// unit with a fixed internal order (see tiles.go), and the edges above
// guarantee each unit's inputs are final before it runs. So per cell the
// candidate sequence (and the smallest-k tie discipline) is identical to
// the serial Solve's and the sequential DP's, hence bitwise-equal tables
// and split matrices under every registered algebra. The conformance
// matrix and FuzzPipelinedMatchesBlocked pin this.
package blocked

import (
	"context"
	"runtime"
	"sync/atomic"

	"sublineardp/internal/parutil"
	"sublineardp/internal/recurrence"
)

// BatchItem is one instance of an overlapped pipelined batch, with an
// optional per-item context: cancelling it abandons that solve's
// remaining tiles (which still resolve their successors' counters, so
// the shared graph drains) without touching the other items. KY selects
// the Knuth–Yao pruned closure (SolveKYCtx) for the item.
type BatchItem struct {
	In  *recurrence.Instance
	Ctx context.Context
	KY  bool
}

// SolvePipe runs the pipelined engine; like Solve it panics on the only
// reachable error (an unregistered instance algebra).
func SolvePipe(in *recurrence.Instance, opt Options) *Result {
	res, err := SolvePipeCtx(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// SolvePipeCtx runs the pipelined engine for one instance: the blocked
// tile decomposition executed as a dependency graph with no barriers.
// The context is checked at tile-task granularity. The result — table,
// splits, work ledger — is bitwise identical to the serial SolveCtx's.
func SolvePipeCtx(ctx context.Context, in *recurrence.Instance, opt Options) (*Result, error) {
	res, errs := SolvePipeBatchCtx(ctx, []BatchItem{{In: in}}, opt)
	return res[0], errs[0]
}

// SolvePipeBatchCtx seeds every item's tile graph into one shared
// scheduler and drains them together, so independent solves overlap: the
// pool never fences between one instance's diagonals or between
// instances. Results and errors are positional. ctx cancels the whole
// batch; BatchItem.Ctx cancels one item. Every successful Result carries
// the shared scheduler's Stats view (the batch ran as one graph — its
// counters are joint by construction).
func SolvePipeBatchCtx(ctx context.Context, items []BatchItem, opt Options) ([]*Result, []error) {
	results := make([]*Result, len(items))
	errs := make([]error, len(items))
	if ctx == nil {
		ctx = context.Background()
	}
	pool := opt.Pool
	if pool == nil {
		pool = parutil.Default()
	}
	// The auto tile edge targets the processors the graph really drains
	// on: an explicit Workers beyond GOMAXPROCS oversubscribes
	// goroutines, it does not add processors.
	procs := opt.Workers
	if procs <= 0 {
		procs = pool.Workers()
	}
	procs = min(procs, runtime.GOMAXPROCS(0))
	solves := make([]*pipeSolve, len(items))
	live := false
	for idx, it := range items {
		ts, err := newTiles(it.In, opt, procs, it.KY)
		if err != nil {
			errs[idx] = err
			continue
		}
		ictx := it.Ctx
		if ictx == nil {
			ictx = ctx
		}
		solves[idx] = newPipeSolve(ictx, ts, it.KY)
		live = true
	}
	if !live {
		return results, errs
	}

	st := &parutil.Stats{}
	pool.RunGraph(ctx, opt.Workers, st, func(g *parutil.TaskGraph) {
		for _, p := range solves { //lint:allow ctxpoll O(batch) task-seeding loop; cancellation is RunGraph(ctx) draining the shared graph
			if p != nil {
				p.seed(g)
			}
		}
	})
	view := st.View()
	for idx, p := range solves {
		if p == nil {
			continue
		}
		if errs[idx] = p.finish(ctx); errs[idx] == nil {
			results[idx] = p.ts.result()
			results[idx].Stats = view
		}
	}
	return results, errs
}

// pipeSolve is one instance's tile graph state. Tile (I,J) is flat index
// I*nb+J, which is also the Arg of its closure task; the phase-A task of
// row i of tile (I,J) has Arg nb*nb + i*nb + J (I is i's block).
type pipeSolve struct {
	ts    tiles
	b, nb int
	ctx   context.Context
	ky    bool
	// tasks holds every task node of the solve, allocated once so that
	// submitting is allocation-free.
	tasks []parutil.Task
	// deps is the in-degree counter: 2(J−I) unfinished predecessor
	// tiles. The task that moves it to zero owns submitting the tile.
	deps []atomic.Int32
	// aLeft counts the tile's outstanding phase-A row tasks; the last
	// row submits the closure, which is the intra-tile A-before-B edge.
	aLeft     []atomic.Int32
	tilesLeft atomic.Int64
	aWork     atomic.Int64
	bWork     atomic.Int64
	// failed records that some task observed the item's cancellation and
	// skipped its compute — the table is not trustworthy past that point.
	failed atomic.Bool
}

func newPipeSolve(ctx context.Context, ts tiles, ky bool) *pipeSolve {
	b, nb := ts.geometry()
	p := &pipeSolve{ts: ts, b: b, nb: nb, ctx: ctx, ky: ky, deps: make([]atomic.Int32, nb*nb)}
	nTasks := nb * nb
	if !ky && nb > 2 {
		p.aLeft = make([]atomic.Int32, nb*nb)
		nTasks += ts.hi(nb-1) * nb
	}
	p.tasks = make([]parutil.Task, nTasks)
	for I := 0; I < nb; I++ {
		for J := I; J < nb; J++ {
			p.deps[I*nb+J].Store(int32(2 * (J - I)))
			if p.aLeft != nil && J-I >= 2 {
				p.aLeft[I*nb+J].Store(int32(ts.hi(I) - ts.lo(I)))
			}
		}
	}
	p.tilesLeft.Store(int64(nb) * int64(nb+1) / 2)
	return p
}

// submit pushes task arg onto the graph.
func (p *pipeSolve) submit(g *parutil.TaskGraph, arg int) {
	t := &p.tasks[arg]
	t.Runner, t.Arg = p, arg
	g.Submit(t)
}

// RunTask dispatches a task by its Arg: a tile closure or a phase-A row.
func (p *pipeSolve) RunTask(g *parutil.TaskGraph, arg int) {
	nb := p.nb
	if arg < nb*nb {
		p.closeTask(g, arg/nb, arg%nb)
		return
	}
	r := arg - nb*nb
	p.rowTask(g, r/nb, r%nb)
}

// seed submits the in-degree-zero diagonal tiles.
func (p *pipeSolve) seed(g *parutil.TaskGraph) {
	for T := 0; T < p.nb; T++ {
		p.submit(g, T*p.nb+T)
	}
}

// ready fires when tile (I,J)'s last predecessor finished: far tiles of
// an unpruned solve fan out into one phase-A task per row, everything
// else (d < 2 — nothing interior to fold — or a Knuth–Yao tile) goes
// straight to closure. A cancelled item skips the fan-out and lets
// closeTask do bookkeeping only.
func (p *pipeSolve) ready(g *parutil.TaskGraph, I, J int) {
	if !p.ky && J-I >= 2 && p.ctx.Err() == nil {
		for i := p.ts.lo(I); i < p.ts.hi(I); i++ {
			p.submit(g, p.nb*p.nb+i*p.nb+J)
		}
		return
	}
	p.submit(g, I*p.nb+J)
}

// rowTask is one phase-A unit: fold every strictly interior block into
// row i of tile (I,J). The last row of the tile submits the closure.
func (p *pipeSolve) rowTask(g *parutil.TaskGraph, i, J int) {
	I := i / p.b
	if p.ctx.Err() == nil {
		fbuf := getFbuf(p.b)
		p.aWork.Add(p.ts.foldRowInterior(*fbuf, i, I, J))
		fbufPool.Put(fbuf)
	} else {
		p.failed.Store(true)
	}
	if p.aLeft[I*p.nb+J].Add(-1) == 0 {
		p.submit(g, I*p.nb+J)
	}
}

// closeTask closes tile (I,J) and resolves its successors' counters:
// the rest of row I to the right, the rest of column J upward. Counter
// bookkeeping runs even for a cancelled item so a shared graph always
// drains — cancellation abandons work, never wedges co-batched solves.
// A close the context cut short (closeTile polls it per row) marks the
// item failed, so its partial table is never returned.
func (p *pipeSolve) closeTask(g *parutil.TaskGraph, I, J int) {
	switch {
	case p.ctx.Err() != nil:
		p.failed.Store(true)
	case p.ky:
		p.bWork.Add(p.ts.closeTileKY(I, J))
	default:
		fbuf := getFbuf(p.b)
		p.bWork.Add(p.ts.closeTile(p.ctx, *fbuf, I, J))
		fbufPool.Put(fbuf)
		if p.ctx.Err() != nil {
			p.failed.Store(true)
		}
	}
	nb := p.nb
	for J2 := J + 1; J2 < nb; J2++ {
		if p.deps[I*nb+J2].Add(-1) == 0 {
			p.ready(g, I, J2)
		}
	}
	for I2 := I - 1; I2 >= 0; I2-- {
		if p.deps[I2*nb+J].Add(-1) == 0 {
			p.ready(g, I2, J)
		}
	}
	p.tilesLeft.Add(-1)
}

// finish validates completion and charges the work ledger (leaf units +
// phase-A + closure candidates, the same counts as the serial Solve).
func (p *pipeSolve) finish(batchCtx context.Context) error {
	if p.failed.Load() || p.tilesLeft.Load() > 0 {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		if err := batchCtx.Err(); err != nil {
			return err
		}
		// Unreachable: incompleteness implies a cancelled context.
		return context.Canceled
	}
	p.ts.charge(p.aWork.Load(), p.bWork.Load())
	return nil
}
