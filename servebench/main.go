// Command servebench is the repository's benchmark. run.sh builds
// cmd/dpserved and this client; the client starts the unmodified dpserved
// with its default flags as a separate process, drives one of three
// workloads against it over at most two connections, checks every answer
// against an in-process oracle, and prints each metric by name with its
// unit and sample count. The last line of standard output is a JSON
// summary.
//
//	bash servebench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
//
// --trace 1 prints the per-layer metrics instead: it drives the workload
// untraced and traced, replays its requests in-process through each
// layer's public functions, and probes the engines and kernels. See
// README.md in this directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"sublineardp/internal/wire"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		wl       = fl.String("workload", wlServeHot, "workload: serve-hot | serve-cold | solve-large")
		seed     = fl.Int64("seed", 1, "workload seed")
		seconds  = fl.Int("seconds", 12, "run length; sets the size of the fixed request set")
		trace    = fl.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		srvBin   = fl.String("server", ".bench_build/dpserved", "dpserved binary")
		outDir   = fl.String("out", ".bench_build/servebench-runs", "directory for reports, spans, oracle answers and server logs")
		capacity = fl.Bool("capacity", false, "instead of a run, measure the closed-loop capacity of the workload's mix over its connections")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "servebench: --trace must be 0 or 1")
		return 2
	}
	if _, err := os.Stat(*srvBin); err != nil {
		fmt.Fprintf(stderr, "servebench: dpserved binary: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{workload: *wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		serverBin: *srvBin, outDir: *outDir, procs: runtime.NumCPU(), stdout: stdout}
	var err error
	if *capacity {
		err = b.capacity(ctx)
	} else {
		err = b.run(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	return 0
}

// bench is one benchmark invocation.
type bench struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	serverBin string
	outDir    string
	procs     int // nproc: CPUs in this process's affinity mask
	stdout    io.Writer

	set     *requestSet
	answers map[string]answer
}

// result is the JSON summary printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) prepare() error {
	set, err := buildSet(b.workload, b.seed, b.seconds)
	if err != nil {
		return err
	}
	b.set = set
	// Oracle answers are computed before any server starts and are not
	// part of set-up time.
	b.answers, err = oracles(set, b.seconds, b.outDir)
	return err
}

func (b *bench) run(ctx context.Context) error {
	if err := b.prepare(); err != nil {
		return err
	}
	var drives []*driveRun
	var metrics map[string]measurement
	var tr *tracer
	var replays []*replayed
	base, err := b.driveWorkload(ctx, false)
	if err != nil {
		return err
	}
	drives = append(drives, base)
	if !b.traced {
		metrics = e2e(base)
	} else {
		traced, err := b.driveWorkload(ctx, true)
		if err != nil {
			return err
		}
		drives = append(drives, traced)
		tr, replays, err = b.replay(ctx)
		if err != nil {
			return err
		}
		speedups := map[string]float64{}
		for engine, name := range map[string]string{"llp": "llp", "blocked-pipe": "blocked.pipe", "blocked-ky": "blocked.ky"} {
			v, ok, err := b.speedupVsW1(ctx, engine, replays)
			if err != nil {
				return err
			}
			if ok {
				speedups[name+".speedup_vs_w1"] = v
			}
		}
		tileN, reduceLen := b.probeShape()
		kernels := kernelProbes(tileN, reduceLen, b.procs)
		metrics = b.perLayer(base, traced, replays, speedups, kernels)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var invalid, failures []string
	for _, d := range drives {
		res.Attempted += d.total.attempted + d.throwaway.attempted
		res.Failed += d.total.failed + d.throwaway.failed
		invalid = append(invalid, d.invalid...)
		failures = append(failures, d.total.failures...)
		failures = append(failures, d.throwaway.failures...)
	}
	for _, rp := range replays {
		if rp.answerErr != nil {
			res.Failed++
			failures = append(failures, fmt.Sprintf("replay of request %d: %v", rp.idx, rp.answerErr))
		}
	}
	res.Correct = res.Failed == 0 && len(invalid) == 0

	stamp := b.stamp(base.serverProcs)
	fmt.Fprintf(b.stdout, "servebench: %s\n", stamp.line())
	if base.serverProcs < b.procs {
		fmt.Fprintf(b.stdout, "servebench: WARNING: server GOMAXPROCS=%d is below nproc=%d; this run measures fewer cores than the machine has\n",
			base.serverProcs, b.procs)
	}
	for _, f := range failures[:min(len(failures), 5)] {
		fmt.Fprintf(b.stdout, "servebench: FAILED %s\n", f)
	}
	for _, s := range invalid {
		fmt.Fprintf(b.stdout, "servebench: INVALID run: counters disagree: %s\n", s)
	}
	for _, line := range b.workloadChecks(metrics, base) {
		fmt.Fprintf(b.stdout, "servebench: check %s\n", line)
	}
	fmt.Fprintf(b.stdout, "metric failed_ratio = %.6f ratio (n=%d)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	catalog := endToEndMetrics
	if b.traced {
		catalog = perLayerMetrics
	}
	for _, d := range catalog {
		v := metrics[d.Name]
		fmt.Fprintf(b.stdout, "metric %s = %.6g %s (n=%d)\n", d.Name, v.Value, v.Unit, v.Samples)
		res.Metrics[d.Name] = metricValue{v.Value, v.Unit}
	}
	if err := b.writeReport(stamp, res, metrics, invalid, failures, drives, tr); err != nil {
		fmt.Fprintf(b.stdout, "servebench: report not written: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(b.stdout, string(line))
	return nil
}

// probeShape picks the sizes the kernel probes mimic: the most frequent
// interval size of the measured requests (the tile shape) and half the
// longest chain (the mean candidate run an llp fold reduces).
func (b *bench) probeShape() (tileN, reduceLen int) {
	count := map[int]int{}
	chainN := 0
	for _, r := range b.set.Reqs {
		if wire.IsChainKind(r.Req.Kind) {
			chainN = max(chainN, r.N)
			continue
		}
		count[r.N]++
	}
	for n, c := range count {
		if c > count[tileN] || (c == count[tileN] && n < tileN) {
			tileN = n
		}
	}
	if chainN == 0 {
		chainN = tileN
	}
	return tileN, max(chainN/2, 1)
}

// workloadChecks reports whether the run exercised the layers its
// workload claims: hits only on serve-hot, misses only on serve-cold,
// the solver dominating handler time on solve-large.
func (b *bench) workloadChecks(m map[string]measurement, base *driveRun) []string {
	status := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "NOT MET"
	}
	c := base.delta
	switch b.workload {
	case wlServeHot:
		hit := float64(c["cache_hits"]) / float64(max(c["responses_ok"], 1))
		return []string{fmt.Sprintf("serve-hot cache hit ratio %.4f >= 0.99: %s", hit, status(hit >= 0.99))}
	case wlServeCold:
		return []string{fmt.Sprintf("serve-cold hits=%d coalesced=%d, both 0: %s",
			c["cache_hits"], c["coalesced"], status(c["cache_hits"] == 0 && c["coalesced"] == 0))}
	case wlSolveLarge:
		if v, ok := m["solver.handler_share"]; ok && b.traced {
			return []string{fmt.Sprintf("solve-large solver.solve share of handler time %.3f >= 0.70: %s",
				v.Value, status(v.Value >= 0.70))}
		}
	}
	return nil
}

// envStamp records what a run measured on.
type envStamp struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	Seconds          int    `json:"seconds"`
	Traced           bool   `json:"traced"`
	Nproc            int    `json:"nproc"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Requests         int    `json:"requests"`
	Time             string `json:"time"`
}

func (s envStamp) line() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v requests=%d nproc=%d client_gomaxprocs=%d server_gomaxprocs=%d go=%s commit=%s",
		s.Workload, s.Seed, s.Seconds, s.Traced, s.Requests, s.Nproc, s.ClientGOMAXPROCS, s.ServerGOMAXPROCS, s.GoVersion, s.Commit)
}

func (b *bench) stamp(serverProcs int) envStamp {
	return envStamp{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Traced: b.traced,
		Nproc: b.procs, ClientGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: serverProcs,
		GoVersion: runtime.Version(), Commit: commit(), Requests: len(b.set.Reqs),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the code under test: the VCS revision stamped into this
// binary when it was built inside a git work tree, else a SHA-256 over
// the checkout's Go sources and module files.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeReport stores the run's full record (stamp, metrics with sample
// counts, counters, failures) and, for a traced run, its spans.
func (b *bench) writeReport(stamp envStamp, res result, metrics map[string]measurement,
	invalid, failures []string, drives []*driveRun, tr *tracer) error {
	mode := 0
	if b.traced {
		mode = 1
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-s%d-t%d", b.workload, b.seed, mode))
	var deltas []counters
	for _, d := range drives {
		deltas = append(deltas, d.delta)
	}
	report := map[string]any{
		"stamp": stamp, "correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": metrics, "invalid": invalid, "failures": failures, "measured_counters": deltas,
		"latency_by_family": b.familyLatency(drives[0]),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	type clientSpan struct {
		Req       int    `json:"req"`
		ID        string `json:"id"`
		SendNs    int64  `json:"send_ns"`
		FirstByte int64  `json:"first_byte_ns"`
		EndNs     int64  `json:"end_ns"`
		ElapsedUs int64  `json:"elapsed_us"`
	}
	traced := drives[len(drives)-1]
	client := make([]clientSpan, len(traced.samples))
	for i := range traced.samples {
		s := &traced.samples[i]
		client[i] = clientSpan{i, b.set.Reqs[i].ID, s.send, s.firstByte, s.end, traced.measured.elapsedUs[i]}
	}
	data, err = json.Marshal(map[string]any{"client": client, "replay": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json", data, 0o644)
}

// familyLatency breaks a drive's 200-response latencies down by request
// family and size.
func (b *bench) familyLatency(d *driveRun) map[string]measurement {
	lat := map[string][]float64{}
	for i := range d.samples {
		if d.measured.elapsedUs[i] >= 0 {
			r := b.set.Reqs[i]
			key := fmt.Sprintf("%s-n%d", r.Family, r.N)
			lat[key] = append(lat[key], float64(d.samples[i].latency().Nanoseconds())/1e6)
		}
	}
	out := map[string]measurement{}
	for k, v := range lat {
		out[k] = measurement{median(v), "ms", len(v)}
	}
	return out
}

// capacity measures the closed-loop throughput of the workload's
// measured mix over its connections against a fresh server — the figure
// serve-cold's open-loop rate is set against.
func (b *bench) capacity(ctx context.Context) error {
	if err := b.prepare(); err != nil {
		return err
	}
	b.set.Closed = true
	run, err := b.driveWorkload(ctx, false)
	if err != nil {
		return err
	}
	if run.measured.failed > 0 {
		return errors.New("capacity run had failures: " + strings.Join(run.measured.failures, "; "))
	}
	fmt.Fprintf(b.stdout, "servebench: %s closed-loop capacity over %d connections: %.1f req/s (%d requests in %s)\n",
		b.workload, b.set.Conns, float64(run.measured.ok)/run.wall.Seconds(), run.measured.ok, run.wall.Round(time.Millisecond))
	return nil
}
