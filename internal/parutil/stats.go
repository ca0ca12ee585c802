package parutil

import "sync/atomic"

// Stats is a per-solve scheduler observability collector. A task graph
// counts into one Stats for a solve (or a whole overlapped batch), and
// the engine snapshots it with View when the solve returns: the executed
// work units (Tasks) next to the time drain workers spent parked with
// nothing ready (IdleNs).
//
// All counters are atomic: one Stats is shared by every drain worker of
// a graph, and by several concurrent solves when a batch shares one
// scheduler on purpose.
type Stats struct {
	idleNs atomic.Int64
	tasks  atomic.Int64
}

// StatsView is a plain-value snapshot of a Stats collector, safe to copy
// and embed in results.
type StatsView struct {
	// Barriers counts full phase joins. Every shipped engine runs on the
	// task graph, whose only join is the final quiescence, so this is 0;
	// the field stays for readers of the snapshot.
	Barriers int64
	// IdleNs is scheduler idle: nanoseconds drain workers spent parked
	// with no ready task to claim.
	IdleNs int64
	// Tasks counts executed graph tasks.
	Tasks int64
	// Steals counts foreign jobs a submitter drained while parked at a
	// phase join. No shipped engine fences a phase, so this is 0; the
	// field stays for readers of the snapshot.
	Steals int64
}

// View snapshots the collector. The snapshot is consistent per counter,
// not across counters; take it after the graph it covers returned.
func (s *Stats) View() StatsView {
	if s == nil {
		return StatsView{}
	}
	return StatsView{IdleNs: s.idleNs.Load(), Tasks: s.tasks.Load()}
}

// AddIdleNs records nanoseconds spent parked with nothing to run.
func (s *Stats) AddIdleNs(ns int64) {
	if s != nil && ns > 0 {
		s.idleNs.Add(ns)
	}
}

// AddTasks records executed work units.
func (s *Stats) AddTasks(n int64) {
	if s != nil && n > 0 {
		s.tasks.Add(n)
	}
}
