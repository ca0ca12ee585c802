// Package llp is the asynchronous parallel engine for the chain
// recurrence (recurrence.Chain), in the Lattice-Linear Predicate style:
// the state is the vector of prefix values c(0..N) ordered by "how many
// candidates have been folded in", the predicate "index j is stable"
// holds once every candidate k < j is itself stable and folded, and any
// worker may advance any index whose predicate inputs are ready — there
// is no global barrier, no phase counter, and no locking of shared
// state beyond one atomic frontier and one stable bit per index.
//
// Concretely, workers own interleaved index sets (index j belongs to
// worker (j-1) mod W) and sweep them repeatedly. On each visit to an
// unfinished index j a worker folds the contiguous candidate run that
// has become ready since the last visit — k from Lo(j)+done(j) up to
// the published frontier — through the algebra kernel's bulk
// ReduceRelax, with the transition weights bulk-evaluated through
// Chain.FRow. Stragglers are tolerable because partial folds are
// permanent: each candidate pair (k,j) is folded exactly once, whenever
// its inputs happen to be ready, so a delayed worker delays only its
// own indices and the total work is exactly the sequential engine's
// candidate count — the work-efficiency bar the benchmarks audit.
//
// Publication is the classic stable-flag/frontier cascade: an owner
// finishes index j, stores its stable bit, then lifts the shared
// frontier over every contiguous stable index. Go's sequentially
// consistent atomics make the cascade sound (the last writer of a
// contiguous prefix always observes the bits before it), and the
// write-values -> store-stable -> CAS-frontier -> load-frontier ->
// read-values chain gives readers happens-before on every value at or
// below the frontier.
//
// Dispatch runs on parutil.Pool. A pool under queue pressure may run
// chunks at reduced width — even strictly sequentially — so a worker
// never blocks on another worker's index: when a full sweep makes no
// progress and no other worker has progressed either, the worker
// retires its chunk. Under real concurrency the one dispatch finishes
// everything; if the dispatch returns with the frontier short of N (a
// degraded pool ran the chunks serially), no worker is running any
// more, so a single-owner catch-up pass folds the remaining candidate
// runs in ascending order. Chunked left folds compose: the catch-up
// continues each index from done(j) with the identical fold order, so
// the result stays bitwise equal to the sequential engine's and every
// candidate pair is still folded exactly once.
package llp

import (
	"context"
	"runtime"
	"sync/atomic"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/recurrence"
)

// Options configures an LLP chain solve.
type Options struct {
	// Workers is the number of index-owning workers (0 = pool width).
	Workers int
	// Pool is the worker pool the solve dispatches onto (nil = the
	// process-wide shared pool).
	Pool *parutil.Pool
	// Semiring overrides the algebra (nil = the chain's declared
	// algebra, min-plus by default).
	Semiring algebra.Semiring
}

// Result carries an LLP chain solve.
type Result struct {
	// Values is the converged vector c(0..N), bitwise identical to the
	// sequential chain engine's.
	Values *recurrence.Vector
	// Work counts candidate folds — exactly Chain.NumCandidates() on a
	// completed solve, the work-efficiency invariant.
	Work int64
	// Sweeps is the largest number of relaxation sweeps any single
	// worker ran — the straggler/contention metric (1 means every index
	// was ready on first visit).
	Sweeps int
}

// Solve runs the LLP engine to the fixed point under the chain's
// declared algebra.
func Solve(c *recurrence.Chain, o Options) *Result {
	res, err := SolveCtx(context.Background(), c, o)
	if err != nil {
		// Only reachable for an unregistered chain algebra; the
		// background context never cancels.
		panic(err)
	}
	return res
}

// SolveCtx is Solve with cooperative cancellation, checked once per
// sweep by every worker. A cancelled or expired context aborts with a
// nil Result and ctx.Err().
func SolveCtx(ctx context.Context, c *recurrence.Chain, o Options) (*Result, error) {
	k, err := algebra.Resolve(o.Semiring, c.Algebra)
	if err != nil {
		return nil, err
	}
	n := c.N
	pool := o.Pool
	if pool == nil {
		pool = parutil.Default()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	vec := recurrence.NewVector(n)
	values := vec.Data()
	values[0] = k.One()
	for j := 1; j <= n; j++ { //lint:allow ctxpoll O(n) Zero fill before any worker starts; no candidate work
		values[j] = k.Zero()
	}

	// Every worker folds through its own copy of proto, which carries
	// its own scratch.
	proto := folder{
		c: c, k: k, values: values,
		sparse: c.UsesSupport(algebra.ResolveName(o.Semiring, c.Algebra)),
	}

	var frontier atomic.Int64 // highest index whose value is final
	var progress atomic.Int64 // global progress epoch, for stall detection
	stable := make([]atomic.Bool, n+1)
	done := make([]int32, n+1)       // candidates folded per index; owner-written
	sweeps := make([]int64, workers) // per-worker sweep totals; owner-written

	// advance lifts the frontier over every contiguous stable index.
	// Sequentially consistent atomics make the cascade complete: the
	// last goroutine to store a bit of a contiguous stable prefix
	// observes the whole prefix and publishes it.
	advance := func() {
		for { //lint:allow ctxpoll lock-free frontier cascade: every retry observes another worker's progress and the stable prefix bounds it
			f := frontier.Load()
			if f >= int64(n) || !stable[f+1].Load() {
				return
			}
			frontier.CompareAndSwap(f, f+1)
		}
	}

	body := func(lo, hi int) int64 {
		var work int64
		f := proto
		for w := lo; w < hi; w++ {
			// Owned indices, ascending: j = w+1, w+1+workers, ...
			own := make([]int32, 0, (n-w-1)/workers+1)
			for j := w + 1; j <= n; j += workers {
				if !stable[j].Load() {
					own = append(own, int32(j))
				}
			}
			for len(own) > 0 {
				if ctx.Err() != nil {
					return work
				}
				sweeps[w]++
				seen := progress.Load()
				progressed := false
				out := own[:0]
				for _, j32 := range own {
					j := int(j32)
					d, finished := f.fold(j, int(done[j]), int(frontier.Load()))
					if cnt := d - int(done[j]); cnt > 0 {
						done[j] = int32(d)
						work += int64(cnt)
						progressed = true
					}
					if finished {
						stable[j].Store(true)
						advance()
						progressed = true
						continue
					}
					out = append(out, j32)
				}
				own = out
				if progressed {
					progress.Add(1)
					continue
				}
				if progress.Load() != seen {
					// Someone else moved; our inputs may be ready now.
					runtime.Gosched()
					continue
				}
				// Globally stalled from this worker's view: retire the
				// chunk instead of spinning — the pool may be running
				// chunks sequentially, in which case spinning here would
				// starve the very worker that owns our missing inputs.
				// The post-dispatch catch-up pass folds the remainder.
				break
			}
		}
		return work
	}

	totalWork, err := pool.SumInt64Ctx(ctx, workers, workers, 1, body)
	if err != nil {
		return nil, err
	}
	if int(frontier.Load()) < n {
		// The pool ran the chunks at reduced width and stalled workers
		// retired. The dispatch has returned, so no worker is live:
		// finish the remaining candidate runs single-owner, ascending —
		// the same fold order the workers would have used.
		sweeps[0]++
		f := proto
		for j := int(frontier.Load()) + 1; j <= n; j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if stable[j].Load() {
				continue
			}
			d, _ := f.fold(j, int(done[j]), j-1)
			totalWork += int64(d - int(done[j]))
			done[j] = int32(d)
			stable[j].Store(true)
			frontier.Store(int64(j))
		}
	}

	maxSweeps := int64(0)
	for _, s := range sweeps { //lint:allow ctxpoll O(workers) counter fold after dispatch has returned
		if s > maxSweeps {
			maxSweeps = s
		}
	}
	return &Result{Values: vec, Work: totalWork, Sweeps: int(maxSweeps)}, nil
}

// folder folds candidate runs into one solve's value vector. Copies
// share the vector and keep their own scratch: the transition-weight
// row of a window run and the support of one index.
type folder struct {
	c      *recurrence.Chain
	k      algebra.Kernel
	values []cost.Cost
	sparse bool // fold only the chain's declared support
	row    []cost.Cost
	sup    []int32
}

// fold folds index j's candidates past the d already folded, up to
// k <= hi, in ascending k: the contiguous window run through FRow and
// ReduceRelax, or — when the chain's declared support holds — the
// supported k one at a time, d then counting support entries. Every
// value it reads is at or below hi, so it must be final. It returns the
// new d and whether j has no candidate left.
func (f *folder) fold(j, d, hi int) (int, bool) {
	c, k, values := f.c, f.k, f.values
	if f.sparse {
		f.sup = c.Support(j, f.sup[:0])
		for ; d < len(f.sup) && int(f.sup[d]) <= hi; d++ {
			kk := int(f.sup[d])
			values[j] = k.Combine(values[j], k.Extend(values[kk], c.F(kk, j))) //lint:allow bulkonly the declared support is a few scattered k per index, not a run FRow could bulk-evaluate
		}
		return d, d == len(f.sup)
	}
	k0 := c.Lo(j) + d
	hi = min(hi, j-1)
	if cnt := hi - k0 + 1; cnt > 0 {
		if f.row == nil {
			f.row = make([]cost.Cost, c.N-c.Lo(c.N)) // the widest window is the last
		}
		row := f.row[:cnt]
		if c.FRow != nil {
			c.FRow(j, k0, row)
		} else {
			for t := range row {
				row[t] = c.F(k0+t, j) //lint:allow bulkonly per-candidate fallback when the chain supplies no FRow; FRow chains take the ReduceRelax bulk path
			}
		}
		values[j] = k.ReduceRelax(values[j], values, row, algebra.ReduceShape{
			M: 1, Cnt0: cnt, A: k0, AStep: 1, B: 0, BStep: 1,
		})
		d += cnt
		k0 += cnt
	}
	return d, k0 > j-1
}
