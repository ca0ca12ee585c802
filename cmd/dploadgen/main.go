// Command dploadgen replays workload mixes against a live dpserved
// instance and reports latency/throughput percentiles — the measurement
// rail for the serving layer, the way cmd/dpbench is for the engines.
//
//	dpserved -addr :8080 &
//	dploadgen -addr http://localhost:8080 -duration 10s -concurrency 16 \
//	        -mix mlp:4,dictionary:4,polygon:2 -distinct 32 -out LOAD_summary.json
//
// The mix names the internal/workload families (mlp matrix chains,
// Zipf-weighted dictionary OBSTs, sensor polygons, max-plus worstchain
// bounds, bool-plan feasibility queries, plus the chain-kind families:
// segls telemetry series, wis job schedules, subsetsum coin-feasibility
// queries) with integer weights; the mlptree and seglspath variants are
// the same instances asking for a reconstruction (return_splits), so
// the mix can exercise the tree/path section of the response;
// -distinct bounds how many distinct instances each family contributes,
// which directly sets the cache-hit share of the run. The JSON summary
// (-out) is uploaded as a CI artifact next to BENCH_core.json.
//
// The mlplarge family is the blocked-pipe tier's load: matrix chains of
// at least n = 1024 regardless of -n, meant to run at low -distinct so
// the server sees repeats of a few heavy instances, folded by its cache
// and single-flight:
//
//	dploadgen -mix mlplarge:1 -distinct 2 -duration 30s -concurrency 4
//
// Large-instance runs shed and time out by design when the server is
// saturated, so 503 (admission shed) and 504 (deadline) responses are
// counted separately from hard errors and do not fail the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sublineardp/internal/problems"
	"sublineardp/internal/wire"
	"sublineardp/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "dpserved base URL")
		duration = flag.Duration("duration", 10*time.Second, "how long to fire")
		conc     = flag.Int("concurrency", 8, "concurrent client connections")
		mix      = flag.String("mix", "mlp:4,dictionary:4,polygon:2,worstchain:1,boolplan:1,mlptree:1", "family:weight list (mlp | mlptree | mlplarge | dictionary | polygon | worstchain | boolplan | segls | seglspath | wis | subsetsum)")
		distinct = flag.Int("distinct", 32, "distinct instances per family (lower = more cache hits)")
		size     = flag.Int("n", 48, "base instance size per request")
		seed     = flag.Int64("seed", 1, "workload seed")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		out      = flag.String("out", "", "also write the summary as JSON to this path")
	)
	flag.Parse()

	reqs, err := buildMix(*mix, *distinct, *size, *seed)
	if err != nil {
		fatal(err)
	}
	if err := waitHealthy(*addr, 10*time.Second); err != nil {
		fatal(err)
	}
	sum := run(*addr, reqs, *duration, *conc, *timeout)
	sum.print(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("summary written to %s\n", *out)
	}
	if sum.Errors > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dploadgen: %v\n", err)
	os.Exit(2)
}

// buildMix expands a family:weight spec into a weighted pool of
// pre-marshalled requests, `distinct` distinct instances per family.
func buildMix(spec string, distinct, n int, seed int64) ([][]byte, error) {
	if distinct < 1 || n < 4 {
		return nil, fmt.Errorf("need -distinct >= 1 and -n >= 4")
	}
	rng := rand.New(rand.NewSource(seed))
	var pool [][]byte
	for _, part := range strings.Split(spec, ",") {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want family:weight)", part)
		}
		weight, err := strconv.Atoi(weightStr)
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("bad mix weight %q", weightStr)
		}
		for d := 0; d < distinct; d++ {
			req, err := buildRequest(name, n, seed+int64(d), rng)
			if err != nil {
				return nil, err
			}
			req.ID = fmt.Sprintf("%s-%d", name, d)
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			for w := 0; w < weight; w++ {
				pool = append(pool, body)
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// buildRequest renders one workload-family instance as its wire request,
// mirroring the internal/workload generators parameter-for-parameter.
func buildRequest(family string, n int, seed int64, rng *rand.Rand) (*wire.Request, error) {
	switch family {
	case "mlptree":
		// The mlp family asking for the optimal parenthesization back —
		// return_splits routes the solve through recorded splits and adds
		// the reconstruction section (tree + digest) to every response,
		// so the load includes serialising an n-leaf tree per miss.
		req, err := buildRequest("mlp", n, seed, rng)
		if err != nil {
			return nil, err
		}
		req.ReturnSplits = true
		return req, nil
	case "seglspath":
		// Chain-kind counterpart: segmented least squares with the optimal
		// breakpoint list in the response.
		req, err := buildRequest("segls", n, seed, rng)
		if err != nil {
			return nil, err
		}
		req.ReturnSplits = true
		return req, nil
	case "mlplarge":
		// The blocked-pipe tier's family: the mlp chain shape at n >= 1024
		// no matter what -n says. Run it at low -distinct — a handful of
		// heavy instances repeating is what the server's single-flight and,
		// warm, its cache fold, rather than a long tail of cold O(n^3) solves.
		big := n
		if big < 1024 {
			big = 1024
		}
		return buildRequest("mlp", big, seed, rng)
	case "mlp":
		// workload.MLPChain shape: 1 x in, hidden widths, out.
		layers := 2 + rng.Intn(4)
		dims := make([]int, 0, layers+2)
		dims = append(dims, 1, 8+rng.Intn(n))
		for l := 1; l < layers; l++ {
			dims = append(dims, 8+rng.Intn(n))
		}
		dims = append(dims, 1+rng.Intn(16))
		for len(dims) < n+1 {
			dims = append(dims, 8+rng.Intn(n))
		}
		return &wire.Request{Kind: wire.KindMatrixChain, Dims: dims[:n+1]}, nil
	case "dictionary":
		m := n - 1
		beta := workload.Zipf(m, 1.07, 10_000, seed)
		alpha := make([]int64, m+1)
		arng := rand.New(rand.NewSource(seed + 1))
		for i := range alpha {
			alpha[i] = 1 + arng.Int63n(200)
		}
		return &wire.Request{Kind: wire.KindOBST, Alpha: alpha, Beta: beta}, nil
	case "polygon":
		return &wire.Request{Kind: wire.KindTriangulation, Points: problems.RandomConvexPolygon(n, 1000, seed)}, nil
	case "worstchain":
		// workload.WorstCaseChain, rendered as its wire request.
		return &wire.Request{Kind: wire.KindWorstChain, Dims: workload.WorstCaseChainDims(n, seed)}, nil
	case "boolplan":
		// workload.FeasibilityPlan, rendered as its wire request — sparse
		// random bans, every fourth seed a deterministically infeasible
		// span-2 wall.
		spans := workload.FeasibilitySpans(n, seed)
		forbidden := make([]wire.Span, len(spans))
		for i, s := range spans {
			forbidden[i] = wire.Span(s)
		}
		return &wire.Request{Kind: wire.KindBoolSplit, Count: n, Forbidden: forbidden}, nil
	case "segls":
		// workload.TelemetrySeries, rendered as its wire request.
		xs, ys := problems.RandomSeries(n, seed)
		pts := make([]wire.Point, len(xs))
		for i := range xs {
			pts[i] = wire.Point{X: xs[i], Y: ys[i]}
		}
		return &wire.Request{Kind: wire.KindSegLS, Points: pts, Penalty: 500 + (seed%7)*250}, nil
	case "wis":
		// workload.JobSchedule, rendered as its wire request.
		starts, ends, weights := problems.RandomJobs(n, seed)
		return &wire.Request{Kind: wire.KindWIS, Starts: starts, Ends: ends, Weights: weights}, nil
	case "subsetsum":
		// workload.CoinFeasibility, rendered as its wire request — every
		// fourth seed a deterministically infeasible all-even coin system.
		target := int64(n)
		if target < 2 {
			target = 2
		}
		return &wire.Request{Kind: wire.KindSubsetSum, Target: target,
			Items: workload.CoinSystem(target, seed)}, nil
	default:
		return nil, fmt.Errorf("unknown workload family %q (mlp | mlptree | mlplarge | dictionary | polygon | worstchain | boolplan | segls | seglspath | wis | subsetsum)", family)
	}
}

func waitHealthy(addr string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s: %v", addr, patience, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Summary is the machine-readable run report (-out).
type Summary struct {
	DurationSec  float64 `json:"duration_sec"`
	Concurrency  int     `json:"concurrency"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed"`
	Timeouts     int64   `json:"timeouts"`
	CacheHits    int64   `json:"cache_hits"`
	Coalesced    int64   `json:"coalesced"`
	Solved       int64   `json:"solved"`
	Throughput   float64 `json:"throughput_rps"`
	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	LatencyMsMax float64 `json:"latency_ms_max"`
}

func (s *Summary) print(w *os.File) {
	fmt.Fprintf(w, "dploadgen: %d requests in %.1fs over %d connections (%.1f req/s)\n",
		s.Requests, s.DurationSec, s.Concurrency, s.Throughput)
	fmt.Fprintf(w, "  outcomes: %d solved, %d cache hits, %d coalesced, %d shed, %d timeouts, %d errors\n",
		s.Solved, s.CacheHits, s.Coalesced, s.Shed, s.Timeouts, s.Errors)
	fmt.Fprintf(w, "  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		s.LatencyMsP50, s.LatencyMsP90, s.LatencyMsP99, s.LatencyMsMax)
}

type sample struct {
	micros    int64
	cached    bool
	coalesced bool
	shed      bool // 503: admission queue full — expected under saturation
	timeout   bool // 504: server-side deadline — expected for heavy mixes
	err       bool
}

func run(addr string, pool [][]byte, duration time.Duration, conc int, timeout time.Duration) *Summary {
	stop := time.Now().Add(duration)
	samplesPer := make([][]sample, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: timeout}
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var local []sample
			for time.Now().Before(stop) {
				body := pool[rng.Intn(len(pool))]
				t0 := time.Now()
				resp, err := client.Post(addr+"/solve", "application/json", bytes.NewReader(body))
				el := time.Since(t0).Microseconds()
				s := sample{micros: el}
				if err != nil {
					s.err = true
				} else {
					var wr wire.Response
					switch {
					case resp.StatusCode == http.StatusServiceUnavailable:
						// Back-pressure, not breakage: the server shed the
						// request at admission.
						s.shed = true
					case resp.StatusCode == http.StatusGatewayTimeout:
						s.timeout = true
					case resp.StatusCode != http.StatusOK ||
						json.NewDecoder(resp.Body).Decode(&wr) != nil:
						s.err = true
					default:
						s.cached, s.coalesced = wr.Cached, wr.Coalesced
					}
					resp.Body.Close()
				}
				local = append(local, s)
			}
			samplesPer[w] = local
		}(w)
	}
	wg.Wait()

	sum := &Summary{DurationSec: duration.Seconds(), Concurrency: conc}
	var lats []int64
	for _, ss := range samplesPer {
		for _, s := range ss {
			sum.Requests++
			switch {
			case s.err:
				sum.Errors++
			case s.shed:
				sum.Shed++
			case s.timeout:
				sum.Timeouts++
			case s.cached:
				sum.CacheHits++
			case s.coalesced:
				sum.Coalesced++
			default:
				sum.Solved++
			}
			if !s.err && !s.shed && !s.timeout {
				lats = append(lats, s.micros)
			}
		}
	}
	sum.Throughput = float64(sum.Requests) / duration.Seconds()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(lats)-1))
			return float64(lats[idx]) / 1000
		}
		sum.LatencyMsP50 = pct(0.50)
		sum.LatencyMsP90 = pct(0.90)
		sum.LatencyMsP99 = pct(0.99)
		sum.LatencyMsMax = float64(lats[len(lats)-1]) / 1000
	}
	return sum
}
