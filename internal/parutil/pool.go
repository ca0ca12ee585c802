package parutil

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines that executes chunked
// index ranges without per-call goroutine spawning: jobs are claimed from
// a shared queue by long-lived workers, and the submitting goroutine
// always participates, so a Pool of width w runs a job at width w with
// zero spawns on the hot path. Pools are safe for concurrent use — many
// solves can dispatch onto one Pool at once (the building block SolveBatch
// shares across a whole batch). Nested dispatch from inside a job body
// cannot deadlock: submitters never block on the queue, and while waiting
// for their helpers they steal and run other queued jobs, so progress
// never depends on a free pool worker.
//
// A Pool's width caps its own goroutines only: a dispatch that asks for
// more workers than the pool holds tops up with transient goroutines, so
// explicit Workers settings keep their meaning on small machines.
type Pool struct {
	width  int
	jobs   chan *job
	closed atomic.Bool
	close  sync.Once
}

// NewPool returns a Pool of the given width (0 means DefaultWorkers). The
// pool holds width-1 goroutines: the submitting goroutine is the width'th
// worker of every dispatch.
func NewPool(width int) *Pool {
	if width <= 0 {
		width = DefaultWorkers()
	}
	p := &Pool{width: width, jobs: make(chan *job, 4*width)}
	for i := 1; i < width; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared Pool (width DefaultWorkers),
// created on first use. The package-level For/ForChunked/SumInt64 route
// through it, so every solver in the repository runs pooled by default.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Workers returns the pool's width.
func (p *Pool) Workers() int { return p.width }

// Close releases the pool's goroutines. Dispatching on a closed Pool
// still completes (the submitter runs every chunk itself, topped up with
// transient goroutines past the pool's width). Close must not race with
// an in-flight dispatch on the same pool; the shared Default pool is
// never closed.
func (p *Pool) Close() {
	p.close.Do(func() {
		p.closed.Store(true)
		close(p.jobs)
	})
}

func (p *Pool) worker() {
	for j := range p.jobs {
		j.runAndSignal()
	}
}

// job is one dispatched index range; recycled through jobPool so the
// steady state allocates almost nothing per dispatch (one completion
// channel when helpers are involved).
type job struct {
	next    atomic.Int64
	n       int
	grain   int
	ctx     context.Context
	body    func(lo, hi int)
	sumFn   func(lo, hi int) int64
	sum     atomic.Int64
	pending atomic.Int32  // helpers that have not signalled yet
	done    chan struct{} // closed by whoever moves pending to 0
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// run claims chunks until the range is exhausted or the job's context is
// cancelled (remaining chunks are then abandoned; dispatchers report that
// through their ctx error).
func (j *job) run() { j.runUntil(nil) }

// runUntil is run with an optional early-out: between chunks it also
// stops once stop is closed. Bailing between chunks is always safe —
// every claimed chunk is completed by its claimer, and the job's
// submitter keeps claiming until the range is exhausted, so abandoned
// helpers only cost parallelism, never coverage.
func (j *job) runUntil(stop <-chan struct{}) {
	var local int64
	for {
		if stop != nil {
			select {
			case <-stop:
				goto out
			default:
			}
		}
		if j.ctx != nil && j.ctx.Err() != nil {
			break
		}
		lo := int(j.next.Add(int64(j.grain))) - j.grain
		if lo >= j.n {
			break
		}
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		if j.sumFn != nil {
			local += j.sumFn(lo, hi)
		} else {
			j.body(lo, hi)
		}
	}
out:
	if local != 0 {
		j.sum.Add(local)
	}
}

// runAndSignal is the helper-side entry: run, then signal completion.
func (j *job) runAndSignal() {
	j.run()
	j.signal(1)
}

// signal retires k helper slots; the goroutine that retires the last one
// closes done.
func (j *job) signal(k int32) {
	if j.pending.Add(-k) == 0 {
		close(j.done)
	}
}

// dispatch fans [0,n) in grain-sized chunks across up to `workers`
// goroutines: the caller, pool workers woken through the queue, and —
// only when the request exceeds the pool's width — transient top-up
// goroutines. Exactly one of body/sumFn is non-nil; the summed total is
// returned.
func (p *Pool) dispatch(ctx context.Context, workers, n, grain int, body func(lo, hi int), sumFn func(lo, hi int) int64) int64 {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = p.width
	}
	if workers > n {
		workers = n
	}
	if grain <= 0 {
		grain = n / (workers * 8)
		if grain < 1 {
			grain = 1
		}
	}
	if workers == 1 {
		if ctx != nil && ctx.Err() != nil {
			return 0
		}
		if sumFn != nil {
			return sumFn(0, n)
		}
		body(0, n)
		return 0
	}

	pooled := workers - 1
	if w := p.width - 1; pooled > w {
		pooled = w
	}
	if p.closed.Load() {
		pooled = 0
	}
	transient := 0
	if workers > p.width {
		transient = workers - p.width
	}

	j := jobPool.Get().(*job)
	j.next.Store(0)
	j.sum.Store(0)
	j.n, j.grain, j.ctx, j.body, j.sumFn = n, grain, ctx, body, sumFn
	helpers := pooled + transient
	j.pending.Store(int32(helpers))
	if helpers > 0 {
		j.done = make(chan struct{})
	}

	for i := 0; i < pooled; i++ {
		select {
		case p.jobs <- j:
		default:
			// Queue full: the job still completes at reduced width — the
			// caller and any already-woken workers claim every chunk.
			j.signal(int32(pooled - i))
			pooled = i
		}
	}
	for i := 0; i < transient; i++ {
		go j.runAndSignal()
	}

	j.run()
	if helpers > 0 {
		p.await(j)
	}
	total := j.sum.Load()
	j.ctx, j.body, j.sumFn, j.done = nil, nil, nil, nil
	jobPool.Put(j)
	return total
}

// await blocks until j.done is closed, i.e. every helper has signalled.
// Instead of idling, it steals other queued jobs and runs them — the
// property that makes nested and concurrent dispatch on a shared pool
// deadlock-free. A stolen job is run one chunk at a time and handed
// back the moment j completes, so this dispatch's latency (and any
// cancellation the caller is propagating) stays bounded by one chunk of
// foreign work, not a foreign job's whole range. Exiting strictly
// through the closed channel (never a bare pending==0 load) guarantees
// the closing helper has finished touching j before the job is
// recycled.
func (p *Pool) await(j *job) {
	steal := p.jobs
	for {
		select {
		case other, ok := <-steal:
			if !ok {
				steal = nil // pool closed; wait on done alone
				continue
			}
			other.runUntil(j.done)
			other.signal(1)
		case <-j.done:
			return
		}
	}
}

// For executes body(idx) for every idx in [0,n) at the pool's full width.
func (p *Pool) For(n int, body func(idx int)) {
	p.ForChunked(0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked executes body over a dynamically balanced partition of [0,n)
// on the pool. workers caps the dispatch width (0 = pool width), grain is
// the chunk size (0 picks the ~8-chunks-per-worker heuristic).
func (p *Pool) ForChunked(workers, n, grain int, body func(lo, hi int)) {
	p.dispatch(nil, workers, n, grain, body, nil)
}

// ForChunkedCtx is ForChunked with cooperative cancellation: workers
// re-check ctx before claiming each chunk and abandon the rest of the
// range once it is cancelled. It returns ctx.Err(), so a nil return
// guarantees every index was executed.
func (p *Pool) ForChunkedCtx(ctx context.Context, workers, n, grain int, body func(lo, hi int)) error {
	p.dispatch(ctx, workers, n, grain, body, nil)
	return ctx.Err()
}

// SumInt64 runs body over [0,n) like ForChunked and returns the sum of
// per-chunk results, accumulated without atomics in the hot path.
func (p *Pool) SumInt64(workers, n, grain int, body func(lo, hi int) int64) int64 {
	return p.dispatch(nil, workers, n, grain, nil, body)
}

// SumInt64Ctx is SumInt64 with cooperative cancellation; the partial sum
// accumulated before cancellation is returned alongside ctx.Err().
func (p *Pool) SumInt64Ctx(ctx context.Context, workers, n, grain int, body func(lo, hi int) int64) (int64, error) {
	return p.dispatch(ctx, workers, n, grain, nil, body), ctx.Err()
}
