// Command dpbench regenerates the paper's tables and figures as text (and
// optionally CSV). Each experiment is indexed in DESIGN.md and recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	dpbench                  # run everything at full scale
//	dpbench -exp E2,E4       # run selected experiments
//	dpbench -quick           # reduced sizes (seconds, used by CI)
//	dpbench -csv out/        # also write one CSV per table
//	dpbench -list            # list the experiment registry
//	dpbench -crosscheck      # batch-solve fixtures on every engine
//	dpbench -json            # write the BENCH_core.json perf baseline
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/exper"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick   = flag.Bool("quick", false, "run at reduced test-suite scale")
		csvDir  = flag.String("csv", "", "directory to also write per-table CSV files")
		workers = flag.Int("workers", 0, "goroutine count for parallel solvers (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiments and exit")
		cross   = flag.Bool("crosscheck", false, "batch-solve a fixture set on every registered engine and report agreement")
		jsonOut = flag.Bool("json", false, "benchmark the core engines and write a machine-readable perf baseline")
		outPath = flag.String("out", "BENCH_core.json", "output path for -json")
		ring    = flag.String("semiring", "", "algebra the -json core bench solves under (default min-plus)")
	)
	flag.Parse()

	if *cross {
		if err := crosscheck(*workers); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		if err := benchCore(*quick, *workers, *outPath, *ring); err != nil {
			fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range exper.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exper.Experiment
	if strings.EqualFold(*expFlag, "all") {
		selected = exper.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := exper.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "dpbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := exper.Config{Quick: *quick, Workers: *workers}
	for _, e := range selected {
		start := time.Now()
		tables := e.Run(cfg)
		for ti, tb := range tables {
			tb.Render(os.Stdout)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(tb.ID), ti)
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
					os.Exit(1)
				}
				tb.CSV(f)
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "dpbench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("[%s finished in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// benchEntry is one engine x size measurement of BENCH_core.json.
type benchEntry struct {
	Engine              string  `json:"engine"`
	N                   int     `json:"n"`
	Iterations          int     `json:"iterations"`
	NsPerOp             int64   `json:"ns_per_op"`
	BytesPerOp          int64   `json:"bytes_per_op"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
}

// benchFile is the BENCH_core.json schema; later PRs append runs of the
// same shape to track the perf trajectory.
type benchFile struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers,omitempty"`
	Quick      bool         `json:"quick"`
	Results    []benchEntry `json:"results"`
}

// maxMaterializeN bounds the instances benchCore materialises: the flat
// F table is O(n^3) memory, so sizes past it run on the constructors'
// closure/FPanel form instead — which is also how a serving process
// actually receives them. The bound is inclusive of n=1024 on purpose:
// that row is the committed blocked-vs-sequential comparison and both
// engines must see the identical representation — but it means a full
// (non -quick) `dpbench -json` run transiently allocates ~8.6 GB per
// n=1024 instance; regenerate the baseline on a machine with >= 10 GB
// free, or use -quick (what CI does), which stays under n=128.
const maxMaterializeN = 1024

// benchCore measures the steady-state cost of one full solve per engine
// and size on the pooled runtime (a warm-up solve populates the pool and
// buffer arena first, as in a serving process) and writes the JSON
// artifact the CI perf-regression job uploads. hlv-dense stops at n=64:
// its O(n^4) double buffer needs ~70 GB at n=256. The blocked-pipe engine is
// the large-size track (n=1024 where the sequential baseline still
// finishes, n=4096 where it is the only practical engine here).
func benchCore(quick bool, workers int, outPath, ring string) error {
	var ringOpts []sublineardp.Option
	if ring != "" && ring != "min-plus" {
		sr, ok := sublineardp.LookupSemiring(ring)
		if !ok {
			return fmt.Errorf("unknown semiring %q (registered: %v)", ring, sublineardp.Semirings())
		}
		ringOpts = append(ringOpts, sublineardp.WithSemiring(sr))
	}
	type config struct {
		engine string
		sizes  []int
	}
	configs := []config{
		{sublineardp.EngineSequential, []int{32, 48, 64, 128, 256, 1024}},
		{sublineardp.EngineHLVDense, []int{32, 48, 64}},
		{sublineardp.EngineHLVBanded, []int{64, 128, 256}},
		{sublineardp.EngineBlockedPipe, []int{256, 1024, 4096}},
	}
	if quick {
		configs = []config{
			{sublineardp.EngineSequential, []int{16, 32, 64}},
			{sublineardp.EngineHLVDense, []int{16, 32}},
			{sublineardp.EngineHLVBanded, []int{32, 64}},
			{sublineardp.EngineBlockedPipe, []int{64, 128}},
		}
	}

	file := benchFile{
		Schema:     "sublineardp/bench-core/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Quick:      quick,
	}
	seqNs := map[int]int64{}
	ctx := context.Background()
	for _, cfg := range configs {
		solver, err := sublineardp.NewSolver(cfg.engine,
			append([]sublineardp.Option{sublineardp.WithWorkers(workers)}, ringOpts...)...)
		if err != nil {
			return err
		}
		for _, n := range cfg.sizes {
			in := problems.RandomMatrixChain(n, 50, 1)
			if n <= maxMaterializeN {
				if n >= 512 {
					gb := 8 * float64(n+1) * float64(n+1) * float64(n+1) / (1 << 30)
					fmt.Printf("%-12s n=%-4d materializing flat F table (~%.1f GB transient)\n", cfg.engine, n, gb)
				}
				in = in.Materialize()
			}
			warm, err := solver.Solve(ctx, in) // populates pool + arena
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", cfg.engine, n, err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := solver.Solve(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
			})
			entry := benchEntry{
				Engine:      cfg.engine,
				N:           n,
				Iterations:  warm.Iterations,
				NsPerOp:     r.NsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if cfg.engine == sublineardp.EngineSequential {
				seqNs[n] = r.NsPerOp()
			} else if base, ok := seqNs[n]; ok && r.NsPerOp() > 0 {
				entry.SpeedupVsSequential = float64(base) / float64(r.NsPerOp())
			}
			file.Results = append(file.Results, entry)
			fmt.Printf("%-12s n=%-4d %12d ns/op %10d B/op %6d allocs/op\n",
				cfg.engine, n, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
		}
	}

	// Knuth-Yao track: the pruned blocked engine on declared-convex OBST
	// instances — the matrixchain family the other tracks share does not
	// satisfy the quadrangle inequality in this recurrence form, so the
	// pruned engine (correctly) refuses it. Same sizes as the blocked
	// track; the n=4096 row is the headline, the ~25 s unpruned solve
	// landing well under a second. Skipped under a non-min-plus -semiring
	// override, which the pruning theorem does not cover.
	if ring == "" || ring == "min-plus" {
		kySizes := []int{256, 1024, 4096}
		if quick {
			kySizes = []int{64, 128}
		}
		solver, err := sublineardp.NewSolver(sublineardp.EngineBlockedKY,
			append([]sublineardp.Option{sublineardp.WithWorkers(workers)}, ringOpts...)...)
		if err != nil {
			return err
		}
		for _, n := range kySizes {
			in := problems.RandomOBST(n-1, 50, 1) // n-1 keys -> N = n
			if _, err := solver.Solve(ctx, in); err != nil {
				return fmt.Errorf("%s n=%d: %w", sublineardp.EngineBlockedKY, n, err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := solver.Solve(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
			})
			entry := benchEntry{
				Engine:      sublineardp.EngineBlockedKY,
				N:           n,
				NsPerOp:     r.NsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if base, ok := seqNs[n]; ok && r.NsPerOp() > 0 {
				entry.SpeedupVsSequential = float64(base) / float64(r.NsPerOp())
			}
			file.Results = append(file.Results, entry)
			fmt.Printf("%-12s n=%-4d %12d ns/op %10d B/op %6d allocs/op\n",
				sublineardp.EngineBlockedKY, n, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
		}
	}

	// Overlapped-batch track: the same two instances run as two
	// back-to-back blocked-pipe solves ("fenced") and pushed through
	// SolveBatch, which seeds both tile graphs into one shared counter
	// scheduler. The overlapped row beating the fenced row is the
	// cross-solve overlap headline: the second instance's head tiles
	// fill the scheduler gaps left by the first one's draining tail.
	batchN := 1024
	if quick {
		batchN = 128
	}
	batchIns := []*sublineardp.Instance{
		problems.RandomMatrixChain(batchN, 50, 1),
		problems.RandomMatrixChain(batchN, 50, 2),
	}
	if batchN <= maxMaterializeN {
		for i, in := range batchIns {
			batchIns[i] = in.Materialize()
		}
	}
	// The fenced-vs-overlapped delta is a fraction of this VM's
	// minute-to-minute drift, so the two modes alternate single-dispatch
	// rounds (sub-second granularity, so both sample the same weather),
	// the order within a round flips every round (no phase bias against
	// a periodic throttle), and the best round per mode is kept
	// (one-sided noise: the minimum estimates true cost). Bytes/allocs
	// come from MemStats deltas around a solo run.
	{
		pipeOpts := append([]sublineardp.Option{
			sublineardp.WithEngine(sublineardp.EngineBlockedPipe), sublineardp.WithWorkers(workers),
		}, ringOpts...)
		solver, err := sublineardp.NewSolver(sublineardp.EngineBlockedPipe, pipeOpts...)
		if err != nil {
			return err
		}
		modes := []struct {
			name string
			run  func() error
		}{
			{"batch2-fenced", func() error {
				for _, in := range batchIns {
					if _, err := solver.Solve(ctx, in); err != nil {
						return err
					}
				}
				return nil
			}},
			{"batch2-" + sublineardp.EngineBlockedPipe, func() error {
				_, err := sublineardp.SolveBatch(ctx, batchIns, pipeOpts...)
				return err
			}},
		}
		best := make([]benchEntry, len(modes))
		for i, m := range modes {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := m.run(); err != nil {
				return fmt.Errorf("%s n=%d: %w", m.name, batchN, err)
			}
			runtime.ReadMemStats(&m1)
			best[i] = benchEntry{
				Engine:      m.name,
				N:           batchN,
				BytesPerOp:  int64(m1.TotalAlloc - m0.TotalAlloc),
				AllocsPerOp: int64(m1.Mallocs - m0.Mallocs),
			}
		}
		for round := 0; round < 6; round++ {
			for k := range modes {
				i := k
				if round%2 == 1 {
					i = len(modes) - 1 - k
				}
				runtime.GC()
				start := time.Now()
				if err := modes[i].run(); err != nil {
					return fmt.Errorf("%s n=%d: %w", modes[i].name, batchN, err)
				}
				if ns := time.Since(start).Nanoseconds(); best[i].NsPerOp == 0 || ns < best[i].NsPerOp {
					best[i].NsPerOp = ns
				}
			}
		}
		for _, entry := range best {
			file.Results = append(file.Results, entry)
			fmt.Printf("%-20s n=%-4d %12d ns/op %10d B/op %6d allocs/op\n",
				entry.Engine, batchN, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
		}
	}

	// Chain track: the 1D prefix recurrence class, sequential reference
	// vs the tiled and LLP engines over the same segmented-least-squares
	// instances. Candidate counts grow as O(n^2) with an O(1) transition
	// (prefix moments), so n=4096 is ~8.4M folds — the regime where a
	// parallel schedule must beat the scan.
	chainSizes := []int{256, 1024, 4096}
	if quick {
		chainSizes = []int{64, 256}
	}
	chainConfigs := []config{
		{sublineardp.ChainEngineSequential, chainSizes},
		{sublineardp.ChainEngineTiled, chainSizes},
		{sublineardp.ChainEngineLLP, chainSizes},
	}
	chainSeqNs := map[int]int64{}
	for _, cfg := range chainConfigs {
		solver, err := sublineardp.NewChainSolver(cfg.engine,
			append([]sublineardp.Option{sublineardp.WithWorkers(workers)}, ringOpts...)...)
		if err != nil {
			return err
		}
		label := "chain-" + cfg.engine
		for _, n := range cfg.sizes {
			xs, ys := problems.RandomSeries(n, 1)
			c := problems.SegmentedLeastSquares(xs, ys, 1000)
			warm, err := solver.Solve(ctx, c)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", label, n, err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := solver.Solve(ctx, c); err != nil {
						b.Fatal(err)
					}
				}
			})
			entry := benchEntry{
				Engine:      label,
				N:           n,
				Iterations:  warm.Sweeps,
				NsPerOp:     r.NsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if cfg.engine == sublineardp.ChainEngineSequential {
				chainSeqNs[n] = r.NsPerOp()
			} else if base, ok := chainSeqNs[n]; ok && r.NsPerOp() > 0 {
				entry.SpeedupVsSequential = float64(base) / float64(r.NsPerOp())
			}
			file.Results = append(file.Results, entry)
			fmt.Printf("%-16s n=%-4d %12d ns/op %10d B/op %6d allocs/op\n",
				label, n, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp)
		}
	}

	blob, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries)\n", outPath, len(file.Results))
	return nil
}

// crosscheck runs every registered engine over a shared fixture set via
// the unified Solver API's batch scheduler and reports per-engine timing
// and agreement with the sequential optimum — a quick end-to-end health
// check of the engine registry.
func crosscheck(workers int) error {
	fixtures := []*sublineardp.Instance{
		problems.MatrixChain([]int{30, 35, 15, 5, 10, 20, 25}),
		problems.RandomMatrixChain(14, 100, 7),
		problems.RandomOBST(12, 50, 3),
		problems.Triangulation(problems.RandomConvexPolygon(12, 1000, 5)),
		problems.Zigzag(16),
	}
	want := make([]sublineardp.Cost, len(fixtures))
	for i, in := range fixtures {
		want[i] = seq.Solve(in).Cost()
	}

	ctx := context.Background()
	disagreements := 0
	fmt.Printf("%-12s %10s %8s  %s\n", "engine", "elapsed", "agree", "costs")
	for _, name := range sublineardp.Engines() {
		fix, exp := fixtures, want
		if name == sublineardp.EngineBlockedKY {
			// The pruned engine refuses non-convex instances by contract
			// (ErrConvexityRequired); cross-check it on the declared-convex
			// subset of the fixtures.
			fix, exp = nil, nil
			for i, in := range fixtures {
				if in.Convex {
					fix = append(fix, in)
					exp = append(exp, want[i])
				}
			}
		}
		start := time.Now()
		sols, err := sublineardp.SolveBatch(ctx, fix,
			sublineardp.WithEngine(name), sublineardp.WithWorkers(workers))
		if err != nil {
			return fmt.Errorf("engine %s: %w", name, err)
		}
		agree := 0
		var costs []string
		for i, sol := range sols {
			if sol.Cost() == exp[i] {
				agree++
			} else {
				disagreements++
			}
			costs = append(costs, fmt.Sprintf("%d", sol.Cost()))
		}
		fmt.Printf("%-12s %10s %5d/%d  %s\n", name,
			time.Since(start).Round(time.Microsecond), agree, len(fix),
			strings.Join(costs, " "))
	}
	if disagreements > 0 {
		return fmt.Errorf("%d engine/fixture disagreements", disagreements)
	}
	fmt.Println("all engines agree with the sequential optimum on every fixture")
	return nil
}
