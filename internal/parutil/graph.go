package parutil

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// TaskGraph is a dynamic dependency-driven scheduler: tasks are pushed
// onto a lock-free ready stack the moment their last dependency resolves
// and claimed by a fixed set of drain workers, with no phase fences
// anywhere — the barrier-free alternative to the pool's fan-out/join
// dispatch. Tasks submit their successors themselves (typically after an
// atomic in-degree counter they decrement hits zero), so the schedule is
// exactly the dependency graph and an idle worker always takes the
// oldest-available ready work regardless of which "phase" or even which
// solve it belongs to. Several independent solves can seed one graph and
// overlap: one solve's tail tiles fill another's head.
//
// Memory ordering: Submit/claim pairs synchronise through the stack's
// CAS, and dependency-counter decrements are atomic RMWs, so the task
// that observes a counter reach zero also observes every write made by
// the tasks that decremented it — the standard refcount publication
// argument. Tasks therefore never need locks of their own as long as
// each output location has exactly one writing task.
type TaskGraph struct {
	ctx   context.Context
	stats *Stats
	head  atomic.Pointer[Task]
	// pending counts unfinished tasks plus one guard held during
	// seeding; done closes when it reaches zero.
	pending atomic.Int64
	done    chan struct{}
	// wake has one slot per worker: a non-blocking send on Submit either
	// queues a token or finds the channel full, which already guarantees
	// a token for every parked worker — no lost wakeups. parked counts
	// workers at or past the pre-park re-check, so Submit can skip the
	// channel entirely (its only locking operation) while every worker is
	// busy — the common case in a saturated graph.
	wake   chan struct{}
	parked atomic.Int32
}

// Task is one node of a TaskGraph: running it calls
// Runner.RunTask(g, Arg). The submitter owns the memory — a solve
// typically allocates all of its tasks in one slice up front, so
// submitting costs no allocation — and submits each Task at most once
// per graph run, which is what keeps the lock-free stack ABA-safe.
type Task struct {
	Runner TaskRunner
	Arg    int
	next   *Task
}

// TaskRunner executes the tasks that name it; arg tells them apart.
type TaskRunner interface {
	RunTask(g *TaskGraph, arg int)
}

// Submit pushes a ready task onto the graph. Safe from any goroutine,
// including (typically) from inside a running task; tasks run exactly
// once, in no particular order.
func (g *TaskGraph) Submit(t *Task) {
	g.pending.Add(1)
	for {
		old := g.head.Load()
		t.next = old
		if g.head.CompareAndSwap(old, t) {
			break
		}
	}
	// Wake only if someone might be parked. A worker that misses this
	// push re-checks the stack after raising parked (see drain), and
	// Go atomics are sequentially consistent, so either that re-check
	// sees our node or this load sees parked > 0 — never neither.
	if g.parked.Load() > 0 {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// Err reports the graph context's error, checked by workers before every
// claimed task — the tile-granularity cancellation bound.
func (g *TaskGraph) Err() error {
	if g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}

// pop claims one ready task. A task is pushed at most once per graph, so
// the CAS is ABA-safe: a stale head simply fails and reloads.
func (g *TaskGraph) pop() *Task {
	for {
		n := g.head.Load()
		if n == nil {
			return nil
		}
		if g.head.CompareAndSwap(n, n.next) {
			return n
		}
	}
}

// complete retires k tasks (or the seed guard); whoever moves pending to
// zero closes done and releases every parked worker.
func (g *TaskGraph) complete(k int64) {
	if g.pending.Add(-k) == 0 {
		close(g.done)
	}
}

// drain is one worker's loop: claim ready tasks until the graph is
// exhausted or cancelled, parking on the wake channel when the stack is
// momentarily empty. Parked time is charged to stats as idle — the
// pipelined analogue of a barrier tail.
func (g *TaskGraph) drain() {
	var ctxDone <-chan struct{}
	if g.ctx != nil {
		ctxDone = g.ctx.Done()
	}
	for {
		if g.ctx != nil && g.ctx.Err() != nil {
			return
		}
		if n := g.pop(); n != nil {
			n.Runner.RunTask(g, n.Arg)
			g.stats.AddTasks(1)
			g.complete(1)
			continue
		}
		// Raise parked before the final re-check: a Submit that raced our
		// empty pop either lands its node where the re-check finds it, or
		// observes parked > 0 and queues a wake token.
		g.parked.Add(1)
		if n := g.pop(); n != nil {
			g.parked.Add(-1)
			n.Runner.RunTask(g, n.Arg)
			g.stats.AddTasks(1)
			g.complete(1)
			continue
		}
		var t0 time.Time
		if g.stats != nil {
			t0 = time.Now()
		}
		select {
		case <-g.wake:
			g.parked.Add(-1)
			if g.stats != nil {
				g.stats.AddIdleNs(int64(time.Since(t0)))
			}
		case <-g.done:
			g.parked.Add(-1)
			if g.stats != nil {
				g.stats.AddIdleNs(int64(time.Since(t0)))
			}
			return
		case <-ctxDone:
			g.parked.Add(-1)
			if g.stats != nil {
				g.stats.AddIdleNs(int64(time.Since(t0)))
			}
			return
		}
	}
}

// RunGraph runs a dynamic task graph on the pool and blocks until every
// task has completed or ctx is cancelled. seed submits the graph's
// initial (in-degree zero) tasks; tasks submit their successors as their
// dependency counters drain. workers caps the drain width (0 = pool
// width). No barrier is ever recorded on st: the only join is the final
// quiescence of the whole graph.
//
// On cancellation workers stop claiming tasks (the current task finishes;
// queued tasks are abandoned) and RunGraph returns ctx.Err(). Callers
// that share one graph across several solves should give tasks their own
// per-solve contexts and have cancelled tasks still resolve their
// successors' counters, so one solve's cancellation drains — not wedges —
// the rest of the graph.
func (p *Pool) RunGraph(ctx context.Context, workers int, st *Stats, seed func(*TaskGraph)) error {
	if workers <= 0 {
		workers = p.width
	}
	// Graph tasks are CPU-bound, so drainers beyond the runnable
	// processors cannot add throughput — but they do add churn: every
	// Submit wakes a parked drainer that loses the race for the task to
	// whoever is already running, and on few cores that is two context
	// switches per task. Fine-grained graphs (thousands of sub-ms row
	// tasks) pay it as a measurable fraction of the solve.
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	g := &TaskGraph{
		ctx:   ctx,
		stats: st,
		done:  make(chan struct{}),
		wake:  make(chan struct{}, workers),
	}
	g.pending.Store(1) // seed guard: the graph can't quiesce mid-seed
	seed(g)
	g.complete(1)
	// The drain workers are one plain pool dispatch of `workers` unit
	// chunks; the dispatch carries no stats, so the graph contributes no
	// barrier and task/idle accounting stays with the graph itself.
	p.ForChunked(workers, workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.drain()
		}
	})
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
