package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// metrics is the server's observability surface, exposed in Prometheus
// text format on /metrics. Counters are cumulative; the e2e suite
// asserts arithmetic identities over them:
//
//	requests == ok + clientGone + rejectedFull + badRequests
//	            + timeouts + solveErrors      (every request resolves once)
//	ok       == cacheHits + coalesced + solved (every 200 is exactly one)
//	exactHits <= cacheHits                     (an exact-body hit is a hit)
//
// so a new code path that finishes a request must increment exactly one
// of the first-identity counters, and a path that produces a 200 exactly
// one of hit / coalesced / solved. exactHits counts the hits the
// exact-body tier answered before decoding; every one of them also
// counts under cacheHits.
type metrics struct {
	requests     atomic.Int64 // /solve requests received
	ok           atomic.Int64 // 200 responses written
	clientGone   atomic.Int64 // request contexts cancelled before a response
	rejectedFull atomic.Int64 // 503s from a full admission queue
	badRequests  atomic.Int64 // 400s
	timeouts     atomic.Int64 // 504s
	solveErrors  atomic.Int64 // 500s from engine failures

	cacheHits atomic.Int64 // served from a resident entry (either tier)
	exactHits atomic.Int64 // the subset of cacheHits the exact-body tier answered
	coalesced atomic.Int64 // folded into an identical in-flight solve
	solved    atomic.Int64 // led a flight: an engine actually ran

	queueDepth    atomic.Int64 // currently admitted requests (gauge)
	cacheEntries  func() int   // resident LRU entries (gauge)
	latencyMu     sync.Mutex
	latencyBounds []float64 // histogram upper bounds, seconds
	latencyCounts []int64   // cumulative-style buckets, one per bound (+Inf last)
	latencySum    float64
	latencyN      int64
}

var defaultLatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

func newMetrics(cacheEntries func() int) *metrics {
	return &metrics{
		cacheEntries:  cacheEntries,
		latencyBounds: defaultLatencyBounds,
		latencyCounts: make([]int64, len(defaultLatencyBounds)+1),
	}
}

// observeLatency records one /solve response latency in seconds.
func (m *metrics) observeLatency(sec float64) {
	m.latencyMu.Lock()
	idx := sort.SearchFloat64s(m.latencyBounds, sec)
	m.latencyCounts[idx]++
	m.latencySum += sec
	m.latencyN++
	m.latencyMu.Unlock()
}

// write renders the Prometheus text exposition.
func (m *metrics) write(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("dpserved_requests_total", "solve requests received", m.requests.Load())
	counter("dpserved_responses_ok_total", "200 responses written", m.ok.Load())
	counter("dpserved_client_gone_total", "requests abandoned by the client before a response", m.clientGone.Load())
	counter("dpserved_rejected_queue_full_total", "503 responses from a full admission queue", m.rejectedFull.Load())
	counter("dpserved_bad_requests_total", "400 responses", m.badRequests.Load())
	counter("dpserved_timeouts_total", "504 responses", m.timeouts.Load())
	counter("dpserved_solve_errors_total", "500 responses from engine failures", m.solveErrors.Load())
	exactHits := m.exactHits.Load() // before cacheHits, which moves first
	counter("dpserved_cache_hits_total", "responses served from a resident cache entry (either tier)", m.cacheHits.Load())
	counter("dpserved_cache_exact_hits_total", "the subset of cache hits answered by the exact-body tier, without decoding", exactHits)
	counter("dpserved_coalesced_total", "requests folded into an identical in-flight solve", m.coalesced.Load())
	counter("dpserved_solved_total", "requests that led a flight (an engine ran)", m.solved.Load())
	gauge("dpserved_queue_depth", "currently admitted in-flight requests", m.queueDepth.Load())
	if m.cacheEntries != nil {
		gauge("dpserved_cache_entries", "resident solution cache entries", int64(m.cacheEntries()))
	}

	m.latencyMu.Lock()
	defer m.latencyMu.Unlock()
	name := "dpserved_solve_latency_seconds"
	fmt.Fprintf(w, "# HELP %s end-to-end /solve latency\n# TYPE %s histogram\n", name, name)
	cum := int64(0)
	for i, b := range m.latencyBounds {
		cum += m.latencyCounts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), cum)
	}
	cum += m.latencyCounts[len(m.latencyBounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, m.latencySum)
	fmt.Fprintf(w, "%s_count %d\n", name, m.latencyN)
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
