// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment E1..E12, matching DESIGN.md's experiment index) plus the
// ablations DESIGN.md calls out. Custom metrics carry the quantities the
// paper reports: iterations, PRAM time, work, processors, processor-time
// products, pebbling moves. cmd/dpbench renders the same data as tables.
package sublineardp_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/btree"
	"sublineardp/internal/core"
	"sublineardp/internal/cost"
	"sublineardp/internal/exper"
	"sublineardp/internal/pebble"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/rytter"
	"sublineardp/internal/seq"
	"sublineardp/internal/wavefront"
	"sublineardp/internal/workload"
)

// E1 — iterations to convergence by optimal-tree shape (Table E1).
func BenchmarkE1IterationsVsShape(b *testing.B) {
	shapes := map[string]func(int) *btree.Tree{
		"zigzag":   btree.Zigzag,
		"complete": btree.Complete,
		"skewed":   btree.LeftSkewed,
	}
	for name, mk := range shapes {
		for _, n := range []int{16, 36, 64} {
			b.Run(fmt.Sprintf("shape=%s/n=%d", name, n), func(b *testing.B) {
				in := problems.Shaped(mk(n)).Materialize()
				target := seq.Solve(in).Table
				var iters int
				for i := 0; i < b.N; i++ {
					res := core.Solve(in, core.Options{Variant: core.Banded, Target: target})
					iters = res.ConvergedAt
				}
				b.ReportMetric(float64(iters), "iterations")
				b.ReportMetric(float64(pebble.LemmaBound(n)), "bound")
			})
		}
	}
}

// E2 — work scaling per solver (Table E2).
func BenchmarkE2WorkScalingSeq(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.Zigzag(n).Materialize()
			var work int64
			for i := 0; i < b.N; i++ {
				work = seq.Solve(in).Work
			}
			b.ReportMetric(float64(work), "work")
		})
	}
}

func BenchmarkE2WorkScalingWavefront(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.Zigzag(n).Materialize()
			var work int64
			for i := 0; i < b.N; i++ {
				work = wavefront.Solve(in, wavefront.Options{}).Acct.Work
			}
			b.ReportMetric(float64(work), "work")
		})
	}
}

func BenchmarkE2WorkScalingHLVBanded(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.Zigzag(n).Materialize()
			var acct float64
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Banded})
				acct = float64(res.Acct.Work)
			}
			b.ReportMetric(acct, "work")
		})
	}
}

func BenchmarkE2WorkScalingHLVDense(b *testing.B) {
	for _, n := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.Zigzag(n).Materialize()
			var acct float64
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Dense})
				acct = float64(res.Acct.Work)
			}
			b.ReportMetric(acct, "work")
		})
	}
}

func BenchmarkE2WorkScalingRytter(b *testing.B) {
	for _, n := range []int{12, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.Zigzag(n).Materialize()
			var acct float64
			for i := 0; i < b.N; i++ {
				res := rytter.Solve(in, rytter.Options{MaxIterations: rytter.DefaultIterations(n)})
				acct = float64(res.Acct.Work)
			}
			b.ReportMetric(acct, "work")
		})
	}
}

// E3 — pebbling game moves vs Lemma 3.3 (Table E3).
func BenchmarkE3PebbleGame(b *testing.B) {
	for _, rule := range []pebble.Rule{pebble.HLVRule, pebble.RytterRule} {
		for _, n := range []int{256, 1024, 4096} {
			b.Run(fmt.Sprintf("rule=%s/zigzag/n=%d", rule, n), func(b *testing.B) {
				tree := btree.Zigzag(n)
				var moves int
				for i := 0; i < b.N; i++ {
					moves, _ = pebble.MovesOn(tree, rule)
				}
				b.ReportMetric(float64(moves), "moves")
				b.ReportMetric(float64(pebble.LemmaBound(n)), "bound")
			})
		}
	}
}

// E4 — average-case moves on random trees (Table E4).
func BenchmarkE4AverageCase(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				st := pebble.SimulateRandom(n, 50, pebble.HLVRule, 42)
				mean = st.Mean
			}
			b.ReportMetric(mean, "mean-moves")
		})
	}
}

// E5 — PRAM time / processor accounting (Table E5).
func BenchmarkE5PRAMAccounting(b *testing.B) {
	for _, n := range []int{36, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.Zigzag(n).Materialize()
			var t, p float64
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Banded, Window: true})
				t, p = float64(res.Acct.Time), float64(res.Acct.MaxProcs)
			}
			b.ReportMetric(t, "pram-time")
			b.ReportMetric(p, "pram-procs")
		})
	}
}

// E6 — cross-validation sweep (Table E6); the metric is solver agreements.
func BenchmarkE6CrossValidation(b *testing.B) {
	agreements := 0
	for i := 0; i < b.N; i++ {
		agreements = 0
		for seed := int64(1); seed <= 3; seed++ {
			in := problems.RandomMatrixChain(12, 40, seed)
			want := seq.Solve(in).Table
			for _, opts := range []core.Options{
				{Variant: core.Dense}, {Variant: core.Banded}, {Variant: core.Banded, Window: true},
			} {
				if core.Solve(in, opts).Table.Equal(want) {
					agreements++
				}
			}
		}
	}
	b.ReportMetric(float64(agreements), "agreements")
}

// E7 — termination heuristics (Table E7).
func BenchmarkE7Termination(b *testing.B) {
	for _, class := range []string{"zigzag", "random"} {
		b.Run(class, func(b *testing.B) {
			n := 49
			var in *sublineardp.Instance
			if class == "zigzag" {
				in = problems.Zigzag(n)
			} else {
				in = problems.RandomMatrixChain(n, 50, 1)
			}
			in = in.Materialize()
			var stop int
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Banded, Termination: core.WStable})
				stop = res.Iterations
			}
			b.ReportMetric(float64(stop), "stop-iteration")
			b.ReportMetric(float64(core.DefaultIterations(n)), "budget")
		})
	}
}

// E8 — wall-clock self-speedup (Table E8): identical solve at 1/2/4 workers.
func BenchmarkE8Speedup(b *testing.B) {
	in := problems.Zigzag(96).Materialize()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Solve(in, core.Options{Variant: core.Banded, Workers: workers})
			}
		})
	}
}

// E9 — figure generation (tree renders + pebble trace).
func BenchmarkE9Figures(b *testing.B) {
	var tables int
	for i := 0; i < b.N; i++ {
		tables = len(exper.E9Figures(exper.Config{Quick: true}))
	}
	b.ReportMetric(float64(tables), "figures")
}

// E10 — adaptive processor-time product (Table E10).
func BenchmarkE10AdaptivePT(b *testing.B) {
	for _, n := range []int{36, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.RandomMatrixChain(n, 50, 1).Materialize()
			var pt float64
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Banded, Termination: core.WStable})
				pt = float64(res.Acct.PTProduct())
			}
			b.ReportMetric(pt, "pt-product")
		})
	}
}

// E11 — Brent-scheduled makespan on bounded machines (Table E11).
func BenchmarkE11ProcessorScaling(b *testing.B) {
	in := problems.Zigzag(64).Materialize()
	res := core.Solve(in, core.Options{Variant: core.Banded, Window: true})
	for _, p := range []int64{1, 1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var tp int64
			for i := 0; i < b.N; i++ {
				tp = res.Acct.TimeOn(p)
			}
			b.ReportMetric(float64(tp), "makespan")
		})
	}
}

// E12 — semiring generalisation (Table E12).
func BenchmarkE12Semirings(b *testing.B) {
	hlv := sublineardp.MustNewSolver(sublineardp.EngineHLVDense)
	for _, alg := range []string{algebra.NameMinPlus, algebra.NameMaxPlus, algebra.NameBoolPlan} {
		b.Run(alg, func(b *testing.B) {
			in := &recurrence.Instance{
				N:       12,
				Algebra: alg,
				Init:    func(i int) cost.Cost { return 1 },
				F: func(i, k, j int) cost.Cost {
					if alg == algebra.NameBoolPlan {
						return cost.Cost((i + k + j) % 2)
					}
					return cost.Cost(i + k + j)
				},
			}
			var root cost.Cost
			for i := 0; i < b.N; i++ {
				sol, err := hlv.Solve(context.Background(), in)
				if err != nil {
					b.Fatal(err)
				}
				root = sol.Cost()
			}
			b.ReportMetric(float64(root), "root")
		})
	}
}

// E13 — steady-state serving cost of the HLV engines at large n: wall
// clock and allocations per solve once the process is warm, the numbers a
// long-lived server actually pays per request. MaxIterations caps the runs
// at a fixed iteration count so the metric is the runtime's per-iteration
// cost, not the instance's convergence behaviour. hlv-dense is benchmarked
// at its memory ceiling (n=256 dense would need ~70 GB for the O(n^4)
// pw' double buffer); hlv-banded covers the n>=256 regime.
func BenchmarkE13RuntimeServing(b *testing.B) {
	cases := []struct {
		variant core.Variant
		n       int
		iters   int
	}{
		{core.Banded, 128, 8},
		{core.Banded, 256, 4},
		{core.Dense, 48, 8},
		{core.Dense, 64, 4},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("engine=hlv-%s/n=%d", c.variant, c.n), func(b *testing.B) {
			in := problems.RandomMatrixChain(c.n, 50, 1).Materialize()
			opts := core.Options{Variant: c.variant, MaxIterations: c.iters}
			core.Solve(in, opts) // warm the shared runtime (pool + buffer arena)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Solve(in, opts)
			}
		})
	}
}

// E14 — the blocked engine past the HLV ceiling: one full solve per
// iteration at sizes no partial-weight engine can load (hlv-dense would
// need ~70 GB at n=256, ~18 TB at n=1024). "blocked" names the tile
// task graph (blocked.SolvePipe), the engine the registry alias runs. Instances stay on their
// constructor closure/FPanel form — an O(n^3) materialised F table
// would itself be the memory ceiling here — so this measures exactly
// what a serving process pays for a cold large instance. The CI bench
// job smokes it at -benchtime 1x; BENCH_core.json carries the committed
// trajectory including the sequential-baseline speedup.
func BenchmarkE14BlockedLargeN(b *testing.B) {
	for _, c := range []struct{ n, tile int }{
		{256, 0},
		{1024, 0},
	} {
		b.Run(fmt.Sprintf("engine=blocked/n=%d", c.n), func(b *testing.B) {
			in := problems.RandomMatrixChain(c.n, 50, 1)
			opts := blocked.Options{TileSize: c.tile}
			blocked.SolvePipe(in, opts) // warm the shared pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocked.SolvePipe(in, opts)
			}
		})
	}
}

// E15 — the chain recurrence class: the tiled and LLP engines vs the
// sequential reference over segmented-least-squares instances, the
// comparison dpbench's chain track writes to BENCH_core.json
// (chain-sequential / chain-tiled / chain-llp). Candidates grow as O(n^2) with an O(1) transition, so this
// measures the engines' schedules and fold machinery, not instance
// construction. Every engine runs on GOMAXPROCS workers. The wis and
// subsetsum rows at n=4096 fold only their declared support, O(n) and
// O(n·items) candidates, on the sequential scan whichever engine is
// named. The CI bench job smokes it at -benchtime 1x.
func BenchmarkE15ChainLLP(b *testing.B) {
	type row struct {
		family string
		c      *sublineardp.Chain
	}
	var rows []row
	for _, n := range []int{256, 1024} {
		xs, ys := problems.RandomSeries(n, 1)
		rows = append(rows, row{"segls", problems.SegmentedLeastSquares(xs, ys, 1000)})
	}
	s, e, w := problems.RandomJobs(4096, 1)
	rows = append(rows, row{"wis", problems.IntervalScheduling(s, e, w)},
		row{"subsetsum", workload.CoinFeasibility(4096, 1)})
	for _, r := range rows {
		c := r.c
		for _, engine := range []string{sublineardp.ChainEngineSequential, sublineardp.ChainEngineTiled, sublineardp.ChainEngineLLP} {
			b.Run(fmt.Sprintf("engine=chain-%s/%s/n=%d", engine, r.family, c.N), func(b *testing.B) {
				solver := sublineardp.MustNewChainSolver(engine, sublineardp.WithWorkers(runtime.GOMAXPROCS(0)))
				ctx := context.Background()
				warm, err := solver.Solve(ctx, c) // warm the shared pool
				if err != nil {
					b.Fatal(err)
				}
				if warm.Work != c.NumCandidates() {
					b.Fatalf("work %d != candidate count %d: engine not work-efficient", warm.Work, c.NumCandidates())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := solver.Solve(ctx, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E16 — solution-path extraction at scale: three reconstruction
// strategies over one converged blocked solve. "recorded" walks the
// split matrix recorded during the solve (WithSplits) in O(n); "lazy"
// re-derives only the n-1 answer-tree spans from the value table (one
// O(span) scan each); "eager" re-derives the split of every span — the
// pre-recording ExtractTree cost, cubic in candidate scans, which is
// why it runs only at the small size. The CI bench job smokes it at
// -benchtime 1x.
func BenchmarkE16PathExtraction(b *testing.B) {
	kern := algebra.MinPlus{}
	for _, n := range []int{1024, 4096} {
		in := problems.RandomMatrixChain(n, 50, 1)
		res := blocked.SolvePipe(in, blocked.Options{RecordSplits: true})
		b.Run(fmt.Sprintf("mode=recorded/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recurrence.TreeFromSplits(in.N, res.Split); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mode=lazy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recurrence.ExtractTreeSemiring(in, res.Table, kern); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n > 1024 {
			continue
		}
		b.Run(fmt.Sprintf("mode=eager/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				size := n + 1
				splits := make([]int32, size*size)
				for i := 0; i <= n; i++ {
					for j := i + 2; j <= n; j++ {
						target := kern.Norm(res.Table.At(i, j))
						for k := i + 1; k < j; k++ {
							v := kern.Extend3(in.F(i, k, j), res.Table.At(i, k), res.Table.At(k, j))
							if !kern.IsZero(v) && kern.Norm(v) == target {
								splits[i*size+j] = int32(k)
								break
							}
						}
					}
				}
				if _, err := recurrence.TreeFromSplits(n, func(i, j int) int {
					return int(splits[i*size+j])
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E17 — the Knuth-Yao pruned engine: the O(n^2)-work claim measured
// and asserted. Each pruned solve's charged work must stay inside the
// 4*n^2 envelope (the telescoping windows cost ~2 candidates per cell;
// the factor-4 slack absorbs clamping at the borders) and equal
// seq.SolveKnuth's count exactly, and at the sizes where the unpruned
// engine also runs, the pruned candidate count must be strictly below
// the unpruned one. n=4096 — a ~25 s unpruned solve —
// is the headline interactive win, so only the pruned engine runs
// there. The CI bench job smokes this at -benchtime 1x; BENCH_core.json
// carries the committed blocked-ky trajectory.
func BenchmarkE17KnuthYao(b *testing.B) {
	for _, c := range []struct {
		n        int
		unpruned bool
	}{
		{256, true},
		{1024, true},
		{4096, false},
	} {
		in := problems.RandomOBST(c.n-1, 50, 1) // n-1 keys -> in.N = c.n
		opts := blocked.Options{}
		var prunedWork int64
		b.Run(fmt.Sprintf("engine=blocked-ky/n=%d", c.n), func(b *testing.B) {
			res := blocked.SolveKY(in, opts) // warm the pool; audit the envelope
			prunedWork = res.Acct.Work - int64(in.N)
			if limit := 4 * int64(in.N) * int64(in.N); prunedWork > limit {
				b.Fatalf("n=%d: pruned work %d exceeds the 4n^2 envelope %d", in.N, prunedWork, limit)
			}
			if knuth := seq.SolveKnuth(in).Work; prunedWork != knuth {
				b.Fatalf("n=%d: pruned work %d, seq.SolveKnuth %d", in.N, prunedWork, knuth)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocked.SolveKY(in, opts)
			}
		})
		if !c.unpruned {
			continue
		}
		b.Run(fmt.Sprintf("engine=blocked-unpruned/n=%d", c.n), func(b *testing.B) {
			res := blocked.SolvePipe(in, opts)
			if unprunedWork := res.Acct.Work - int64(in.N); prunedWork >= unprunedWork {
				b.Fatalf("n=%d: pruned work %d not below unpruned %d", in.N, prunedWork, unprunedWork)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocked.SolvePipe(in, opts)
			}
		})
	}
}

// E18 — the tile task graph: the barrier-free dependency-counter
// schedule of blocked-pipe at the E14 sizes and of blocked-ky on OBSTs
// of the same sizes, plus the overlap only a shared scheduler can
// express — the same two instances run back to back ("fenced") and as
// one jointly-seeded tile graph. Each single run re-asserts its
// contract before timing: zero barriers on the scheduler counters. The
// CI bench job smokes this at -benchtime 1x; BENCH_core.json carries the
// committed blocked-pipe and batch2 trajectories.
func BenchmarkE18Pipelined(b *testing.B) {
	opts := blocked.Options{Workers: 4} // the BENCH_core.json convention
	for _, n := range []int{256, 1024} {
		for _, c := range []struct {
			engine string
			in     *sublineardp.Instance
			solve  func(*sublineardp.Instance, blocked.Options) *blocked.Result
		}{
			{"blocked-pipe", problems.RandomMatrixChain(n, 50, 1), blocked.SolvePipe},
			{"blocked-ky", problems.RandomOBST(n-1, 50, 1), blocked.SolveKY},
		} {
			b.Run(fmt.Sprintf("engine=%s/n=%d", c.engine, n), func(b *testing.B) {
				res := c.solve(c.in, opts) // warm the pool; pin the contract
				if res.Stats.Barriers != 0 {
					b.Fatalf("n=%d: %s solve crossed %d barriers, want 0", n, c.engine, res.Stats.Barriers)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.solve(c.in, opts)
				}
			})
		}
	}

	insA := problems.RandomMatrixChain(512, 50, 1)
	insB := problems.RandomMatrixChain(512, 50, 2)
	items := []blocked.BatchItem{{In: insA}, {In: insB}}
	ctx := context.Background()
	b.Run("mode=batch2-fenced/n=512", func(b *testing.B) {
		blocked.SolvePipe(insA, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blocked.SolvePipe(insA, opts)
			blocked.SolvePipe(insB, opts)
		}
	})
	b.Run("mode=batch2-overlapped/n=512", func(b *testing.B) {
		if _, errs := blocked.SolvePipeBatchCtx(ctx, items, opts); errs[0] != nil || errs[1] != nil {
			b.Fatal(errs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, errs := blocked.SolvePipeBatchCtx(ctx, items, opts); errs[0] != nil || errs[1] != nil {
				b.Fatal(errs)
			}
		}
	})
}

// Ablation: windowed vs unwindowed pebble schedule (Section 5).
func BenchmarkAblationWindow(b *testing.B) {
	in := problems.Zigzag(64).Materialize()
	for _, window := range []bool{false, true} {
		b.Run(fmt.Sprintf("window=%v", window), func(b *testing.B) {
			var procs float64
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Banded, Window: window})
				procs = float64(res.Acct.MaxProcs)
			}
			b.ReportMetric(procs, "pram-procs")
		})
	}
}

// Ablation: synchronous vs chaotic update order.
func BenchmarkAblationChaotic(b *testing.B) {
	in := problems.Zigzag(36).Materialize()
	target := seq.Solve(in).Table
	for _, mode := range []core.Mode{core.Synchronous, core.Chaotic} {
		b.Run(mode.String(), func(b *testing.B) {
			var conv int
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Dense, Mode: mode, Target: target})
				conv = res.ConvergedAt
			}
			b.ReportMetric(float64(conv), "converged-at")
		})
	}
}

// Ablation: band radius (Section 5's D = 2*ceil(sqrt n) vs alternatives).
func BenchmarkAblationBand(b *testing.B) {
	n := 64
	in := problems.Zigzag(n).Materialize()
	target := seq.Solve(in).Table
	for _, d := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			var conv, work float64
			for i := 0; i < b.N; i++ {
				res := core.Solve(in, core.Options{Variant: core.Banded, BandRadius: d,
					Target: target, MaxIterations: 3 * n})
				conv = float64(res.ConvergedAt)
				work = float64(res.Acct.Work)
			}
			b.ReportMetric(conv, "converged-at")
			b.ReportMetric(work, "work")
		})
	}
}

// Baseline micro-benchmarks.
func BenchmarkSeqSolve(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.RandomMatrixChain(n, 50, 1).Materialize()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seq.Solve(in)
			}
		})
	}
}

func BenchmarkKnuthSolve(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := problems.RandomOBST(n, 50, 1).Materialize()
			for i := 0; i < b.N; i++ {
				seq.SolveKnuth(in)
			}
		})
	}
}

func BenchmarkWavefrontSolve(b *testing.B) {
	in := problems.RandomMatrixChain(96, 50, 1).Materialize()
	for i := 0; i < b.N; i++ {
		wavefront.Solve(in, wavefront.Options{})
	}
}

func BenchmarkPebbleGameMove(b *testing.B) {
	tree := btree.Zigzag(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := pebble.NewGame(tree, pebble.HLVRule)
		g.Run(0)
	}
}
