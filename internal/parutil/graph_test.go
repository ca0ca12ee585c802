package parutil

import (
	"context"
	"sync/atomic"
	"testing"
)

// A task graph must run every submitted task exactly once, including
// tasks submitted from inside running tasks (the successor pattern).
func TestRunGraphExecutesAllTasks(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	var ran atomic.Int64
	st := &Stats{}
	err := pool.RunGraph(context.Background(), 3, st, func(g *TaskGraph) {
		for i := 0; i < 8; i++ {
			submitFn(g, func(g *TaskGraph) {
				ran.Add(1)
				// Two generations of successors from inside the task.
				submitFn(g, func(g *TaskGraph) {
					ran.Add(1)
					submitFn(g, func(*TaskGraph) { ran.Add(1) })
				})
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 24 {
		t.Fatalf("ran %d tasks, want 24", got)
	}
	v := st.View()
	if v.Tasks != 24 {
		t.Errorf("stats counted %d tasks, want 24", v.Tasks)
	}
	if v.Barriers != 0 {
		t.Errorf("graph drain recorded %d barriers, want 0", v.Barriers)
	}
}

// An empty graph (seed submits nothing) must quiesce immediately.
func TestRunGraphEmpty(t *testing.T) {
	if err := Default().RunGraph(context.Background(), 2, nil, func(*TaskGraph) {}); err != nil {
		t.Fatal(err)
	}
}

// Dependency-counter publication: a diamond where the join task reads
// values written by both branches, gated only by the atomic counter.
func TestRunGraphCounterPublication(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for trial := 0; trial < 200; trial++ {
		var a, b int
		var pending atomic.Int32
		pending.Store(2)
		var sum int
		err := pool.RunGraph(context.Background(), 4, nil, func(g *TaskGraph) {
			join := func(g *TaskGraph) {
				if pending.Add(-1) == 0 {
					submitFn(g, func(*TaskGraph) { sum = a + b })
				}
			}
			submitFn(g, func(g *TaskGraph) { a = 1; join(g) })
			submitFn(g, func(g *TaskGraph) { b = 2; join(g) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum != 3 {
			t.Fatalf("trial %d: join read %d, want 3", trial, sum)
		}
	}
}

// Cancellation: workers stop claiming, parked workers wake, RunGraph
// returns the error instead of wedging on the abandoned tasks.
func TestRunGraphCancellation(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var after atomic.Int64
	err := pool.RunGraph(ctx, 3, nil, func(g *TaskGraph) {
		submitFn(g, func(g *TaskGraph) {
			cancel()
			for i := 0; i < 64; i++ {
				submitFn(g, func(*TaskGraph) { after.Add(1) })
			}
		})
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// fnRunner adapts a closure to a one-off Task for these tests.
type fnRunner func(*TaskGraph)

func (f fnRunner) RunTask(g *TaskGraph, _ int) { f(g) }

func submitFn(g *TaskGraph, f func(*TaskGraph)) { g.Submit(&Task{Runner: fnRunner(f)}) }

// The graph's counters are deterministic in tasks: one per executed
// task, across repeated runs into one collector, with no barrier or
// steal ever recorded — the graph has no phase join to count. Tasks
// sharing one Runner are told apart by Arg.
func TestStatsDispatchCounters(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	st := &Stats{}
	var sum atomic.Int64
	r := argSum{&sum}
	for run := 0; run < 3; run++ {
		tasks := make([]Task, 8)
		err := pool.RunGraph(context.Background(), 4, st, func(g *TaskGraph) {
			for i := range tasks {
				tasks[i] = Task{Runner: r, Arg: i + 1}
				g.Submit(&tasks[i])
			}
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if got := sum.Load(); got != 3*36 {
		t.Errorf("task args summed to %d, want %d (each task exactly once)", got, 3*36)
	}
	v := st.View()
	if v.Tasks != 24 {
		t.Errorf("tasks = %d, want 24 (8 per run)", v.Tasks)
	}
	if v.Barriers != 0 || v.Steals != 0 {
		t.Errorf("graph recorded %d barriers / %d steals, want 0", v.Barriers, v.Steals)
	}
	// A nil collector is a no-op everywhere.
	var nilStats *Stats
	nilStats.AddTasks(1)
	nilStats.AddIdleNs(1)
	if v := nilStats.View(); v != (StatsView{}) {
		t.Errorf("nil collector view = %+v, want zero", v)
	}
}

type argSum struct{ sum *atomic.Int64 }

func (a argSum) RunTask(_ *TaskGraph, arg int) { a.sum.Add(int64(arg)) }
