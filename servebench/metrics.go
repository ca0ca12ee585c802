package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is a catalogued metric: every run prints each metric of its
// catalog (end-to-end when untraced, per-layer when traced), by name,
// with its unit.
type metricDef struct {
	Name, Unit string
}

// endToEndMetrics are what a user of dpserved sees; measured with
// tracing off.
var endToEndMetrics = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_req", "ms"},
}

// engineRoutes are the engines auto routing can pick, as named in
// Solution.Engine / ChainSolution.Engine.
var engineRoutes = []string{"sequential", "hlv-banded", "blocked-pipe", "blocked-ky", "llp"}

// perLayerMetrics are the traced run's layer metrics.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"transport.us_p50", "us"},
		{"serve.handler_us_p50", "us"},
		{"serve.self_us_p50", "us"},
		{"serve.batch_size_mean", "count"},
		{"serve.shed_ratio", "ratio"},
		{"serve.timeout_ratio", "ratio"},
		{"wire.decode_us_p50", "us"},
		{"wire.request_kb_mean", "KiB"},
		{"wire.encode_us_p50", "us"},
		{"wire.response_kb_mean", "KiB"},
		{"wire.digest_us_p50", "us"},
		{"wire.digest_mb_mean", "MB"},
		{"cache.hash_us_p50", "us"},
		{"cache.canonical_kb_mean", "KiB"},
		{"cache.get_us_p50", "us"},
		{"cache.add_us_p50", "us"},
		{"cache.hit_ratio", "ratio"},
		{"cache.coalesced_ratio", "ratio"},
		{"recurrence.reconstruct_us_p50", "us"},
		{"solver.solve_ms_p50", "ms"},
		{"solver.handler_share", "ratio"},
	}
	for _, e := range engineRoutes {
		defs = append(defs, metricDef{"solver.route_share." + e, "ratio"})
	}
	defs = append(defs,
		metricDef{"seq.work_per_solve", "count"},
		metricDef{"seq.ns_per_candidate", "ns"},
		metricDef{"llp.work_per_solve", "count"},
		metricDef{"llp.ns_per_candidate", "ns"},
		metricDef{"llp.sweeps_per_solve", "count"},
		metricDef{"llp.speedup_vs_w1", "x"},
		metricDef{"blocked.pipe.work_per_solve", "count"},
		metricDef{"blocked.pipe.ns_per_candidate", "ns"},
		metricDef{"blocked.pipe.speedup_vs_w1", "x"},
		metricDef{"blocked.ky.work_per_solve", "count"},
		metricDef{"blocked.ky.ns_per_candidate", "ns"},
		metricDef{"blocked.ky.speedup_vs_w1", "x"},
		metricDef{"parutil.idle_ms_per_solve", "ms"},
		metricDef{"parutil.tasks_per_solve", "count"},
		metricDef{"parutil.steals_per_solve", "count"},
		metricDef{"parutil.barriers_per_solve", "count"},
	)
	for _, p := range kernelPrimitives {
		for _, a := range probeAlgebras {
			defs = append(defs, metricDef{"algebra." + p + "." + a + ".ns_per_candidate", "ns"})
		}
	}
	return append(defs,
		metricDef{"algebra.floor.ns_per_candidate", "ns"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// measurement is one reported value with the number of samples behind it.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// statWindow is the number of consecutive responses one window of a
// windowed statistic holds: the smallest window whose p99 still has ten
// samples beyond it. minWindows is how many windows a run needs before
// its statistics are taken per window.
const (
	statWindow = 1000
	minWindows = 5
)

// windowed returns the median, over consecutive windows of statWindow
// samples in request order, of stat on each window — or stat over all
// samples when fewer than minWindows windows fit. A stall (a collection,
// a descheduled process, a slow spell of a shared host) then moves a few
// windows' values rather than the run's.
func windowed(n int, stat func(lo, hi int) float64) float64 {
	w := n / statWindow
	if w < minWindows {
		return stat(0, n)
	}
	var vals []float64
	for i := 0; i < w; i++ {
		vals = append(vals, stat(i*statWindow, (i+1)*statWindow))
	}
	return median(vals)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// e2e computes the end-to-end metrics of one untraced drive. Throughput
// and latency percentiles are windowed (see windowed).
func e2e(r *driveRun) map[string]measurement {
	var lat []float64
	var ok []*sample
	for i := range r.samples {
		if r.measured.elapsedUs[i] >= 0 { // a decoded 200
			ok = append(ok, &r.samples[i])
			lat = append(lat, float64(r.samples[i].latency().Nanoseconds())/1e6)
		}
	}
	pct := func(q float64) float64 {
		return windowed(len(lat), func(lo, hi int) float64 { return quantile(lat[lo:hi], q) })
	}
	throughput := windowed(len(ok), func(lo, hi int) float64 {
		first, last := ok[lo].due, ok[lo].end
		for _, s := range ok[lo:hi] {
			first, last = min(first, s.due), max(last, s.end)
		}
		return float64(hi-lo) / (float64(last-first) / 1e9)
	})
	var setup []float64
	for _, d := range r.setup {
		setup = append(setup, d.Seconds())
	}
	n := len(ok)
	return map[string]measurement{
		"throughput_rps": {throughput, "req/s", n},
		"latency_p50_ms": {pct(0.50), "ms", n},
		"latency_p90_ms": {pct(0.90), "ms", n},
		"latency_p99_ms": {pct(0.99), "ms", n},
		"setup_s":        {median(setup), "s", len(setup)},
		"peak_rss_mb":    {r.rssMB, "MB", 1},
		"cpu_ms_per_req": {float64(r.cpu.Nanoseconds()) / 1e6 / float64(max(n, 1)), "ms", n},
	}
}

// meanLatencyMs is the mean client latency of a drive's 200 responses.
func meanLatencyMs(r *driveRun) float64 {
	var lat []float64
	for i := range r.samples {
		if r.measured.elapsedUs[i] >= 0 {
			lat = append(lat, float64(r.samples[i].latency().Nanoseconds())/1e6)
		}
	}
	return mean(lat)
}

// perLayer computes the traced run's layer metrics from the untraced
// drive (base), the traced drive, the in-process replay and the probes.
func (b *bench) perLayer(base, traced *driveRun, replays []*replayed, speedups map[string]float64, kernels map[string]float64) map[string]measurement {
	m := map[string]measurement{}
	put := func(name string, v float64, n int) {
		for _, d := range perLayerMetrics {
			if d.Name == name {
				m[name] = measurement{v, d.Unit, n}
				return
			}
		}
		panic("servebench: uncatalogued metric " + name)
	}

	// Client spans of the traced drive.
	var transport, handler, late, reqKB, respKB []float64
	for i := range traced.samples {
		s := &traced.samples[i]
		el := traced.measured.elapsedUs[i]
		reqKB = append(reqKB, float64(len(b.set.Reqs[i].Body))/1024)
		if el < 0 {
			continue
		}
		handler = append(handler, float64(el))
		transport = append(transport, float64(s.end-s.send)/1e3-float64(el))
		respKB = append(respKB, float64(len(s.body))/1024)
		if !b.set.Closed {
			late = append(late, float64(s.dispatched-s.due)/1e6)
		}
	}
	put("transport.us_p50", quantile(transport, 0.5), len(transport))
	put("serve.handler_us_p50", quantile(handler, 0.5), len(handler))
	put("wire.request_kb_mean", mean(reqKB), len(reqKB))
	put("wire.response_kb_mean", mean(respKB), len(respKB))
	put("loadgen.late_ms_p99", quantile(late, 0.99), len(late))

	// /metrics movement over the traced drive's measured phase.
	c := traced.delta
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	put("serve.batch_size_mean", ratio(c["batch_instances"], c["batches"]), int(c["batches"]))
	put("serve.shed_ratio", ratio(c["rejected_queue_full"], c["requests"]), int(c["requests"]))
	put("serve.timeout_ratio", ratio(c["timeouts"], c["requests"]), int(c["requests"]))
	put("cache.hit_ratio", ratio(c["cache_hits"], c["responses_ok"]), int(c["responses_ok"]))
	put("cache.coalesced_ratio", ratio(c["coalesced"], c["responses_ok"]), int(c["responses_ok"]))

	// In-process replay.
	var decode, hash, get, add, solve, rec, enc, dig, canonKB, digMB, self []float64
	var solveSum, handlerSum float64
	routes := map[string]int{}
	type engineTotals struct {
		solves           int
		work             int64
		ns               int64
		sweeps           int64
		idle, tasks      int64
		steals, barriers int64
	}
	engines := map[string]*engineTotals{}
	solves := 0
	for _, rp := range replays {
		decode = append(decode, us(rp.decode))
		hash = append(hash, us(rp.hash))
		get = append(get, us(rp.get))
		enc = append(enc, us(rp.encode))
		dig = append(dig, us(rp.digest))
		canonKB = append(canonKB, float64(rp.canonBytes)/1024)
		digMB = append(digMB, float64(rp.digestBytes)/1e6)
		if rp.reconstructed {
			rec = append(rec, us(rp.reconstruct))
		}
		if el := traced.measured.elapsedUs[rp.idx]; el >= 0 {
			self = append(self, float64(el)-us(rp.layerSum()))
			handlerSum += float64(el)
			solveSum += us(rp.solve)
		}
		if !rp.solved {
			continue
		}
		solves++
		add = append(add, us(rp.add))
		solve = append(solve, float64(rp.solve.Nanoseconds())/1e6)
		routes[rp.engine]++
		t := engines[rp.engine]
		if t == nil {
			t = &engineTotals{}
			engines[rp.engine] = t
		}
		t.solves++
		t.work += rp.work
		t.ns += rp.solve.Nanoseconds()
		t.sweeps += int64(rp.sweeps)
		t.idle += rp.stats.IdleNs
		t.tasks += rp.stats.Tasks
		t.steals += rp.stats.Steals
		t.barriers += rp.stats.Barriers
	}
	put("wire.decode_us_p50", quantile(decode, 0.5), len(decode))
	put("cache.hash_us_p50", quantile(hash, 0.5), len(hash))
	put("cache.get_us_p50", quantile(get, 0.5), len(get))
	put("cache.add_us_p50", quantile(add, 0.5), len(add))
	put("wire.encode_us_p50", quantile(enc, 0.5), len(enc))
	put("wire.digest_us_p50", quantile(dig, 0.5), len(dig))
	put("wire.digest_mb_mean", mean(digMB), len(digMB))
	put("cache.canonical_kb_mean", mean(canonKB), len(canonKB))
	put("recurrence.reconstruct_us_p50", quantile(rec, 0.5), len(rec))
	put("solver.solve_ms_p50", quantile(solve, 0.5), len(solve))
	put("serve.self_us_p50", quantile(self, 0.5), len(self))
	share := 0.0
	if handlerSum > 0 {
		share = solveSum / handlerSum
	}
	put("solver.handler_share", share, len(self))
	for _, e := range engineRoutes {
		put("solver.route_share."+e, ratio(int64(routes[e]), int64(solves)), solves)
	}
	perSolve := func(prefix, engine string, sweeps bool) {
		t := engines[engine]
		if t == nil {
			t = &engineTotals{}
		}
		n := max(t.solves, 1)
		put(prefix+".work_per_solve", float64(t.work)/float64(n), t.solves)
		nsPer := 0.0
		if t.work > 0 {
			nsPer = float64(t.ns) / float64(t.work)
		}
		put(prefix+".ns_per_candidate", nsPer, t.solves)
		if sweeps {
			put(prefix+".sweeps_per_solve", float64(t.sweeps)/float64(n), t.solves)
		}
	}
	perSolve("seq", "sequential", false)
	perSolve("llp", "llp", true)
	perSolve("blocked.pipe", "blocked-pipe", false)
	perSolve("blocked.ky", "blocked-ky", false)
	var sched engineTotals
	for _, e := range []string{"blocked-pipe", "blocked-ky"} {
		if t := engines[e]; t != nil {
			sched.solves += t.solves
			sched.idle += t.idle
			sched.tasks += t.tasks
			sched.steals += t.steals
			sched.barriers += t.barriers
		}
	}
	n := float64(max(sched.solves, 1))
	put("parutil.idle_ms_per_solve", float64(sched.idle)/1e6/n, sched.solves)
	put("parutil.tasks_per_solve", float64(sched.tasks)/n, sched.solves)
	put("parutil.steals_per_solve", float64(sched.steals)/n, sched.solves)
	put("parutil.barriers_per_solve", float64(sched.barriers)/n, sched.solves)

	for name, v := range speedups {
		put(name, v, 3)
	}
	for name, v := range kernels {
		put(name, v, 5)
	}
	over := 0.0
	if bl := meanLatencyMs(base); bl > 0 {
		over = meanLatencyMs(traced) / bl
	}
	put("trace.overhead_ratio", over, len(traced.samples))
	for _, d := range perLayerMetrics {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = measurement{0, d.Unit, 0}
		}
	}
	return m
}
