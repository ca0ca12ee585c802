// Command dpsolve solves one instance of recurrence (*) with a chosen
// engine and prints the optimum, the optimal parenthesization and the
// solver's instrumentation.
//
// Usage examples:
//
//	dpsolve -problem matrixchain -dims 30,35,15,5,10,20,25
//	dpsolve -problem matrixchain -n 40 -seed 7 -engine hlv-banded
//	dpsolve -problem obst -n 12 -seed 3 -engine hlv-dense -mode chaotic
//	dpsolve -problem triangulation -n 16 -engine rytter
//	dpsolve -problem zigzag -n 25 -engine hlv-banded -window -history
//	dpsolve -problem random -n 200 -engine auto -timeout 5s
//	dpsolve -problem matrixchain -n 2048 -engine blocked -tile 128
//	dpsolve -problem obst -n 4096 -engine blocked-ky
//	dpsolve -problem segls -n 500 -engine llp -workers 4
//	dpsolve -problem subsetsum -n 100 -seed 3
//	dpsolve -request req.json       # solve a dpserved wire request offline
//
// -engines lists the registry.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sublineardp"
	"sublineardp/internal/core"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/rytter"
	"sublineardp/internal/seq"
	"sublineardp/internal/txtplot"
	"sublineardp/internal/verify"
	"sublineardp/internal/wire"
	"sublineardp/internal/workload"
)

func main() {
	var (
		problem = flag.String("problem", "matrixchain", "matrixchain | obst | triangulation | zigzag | balanced | skewed | random | worstchain | boolsplit | segls | wis | subsetsum")
		n       = flag.Int("n", 10, "instance size (ignored when -dims is given)")
		seed    = flag.Int64("seed", 1, "random seed for generated instances")
		dims    = flag.String("dims", "", "comma-separated matrix dimensions (matrixchain only)")
		engine  = flag.String("engine", "", "engine registry name (see -engines); default auto")
		mode    = flag.String("mode", "sync", "sync | chaotic (hlv engines only)")
		term    = flag.String("term", "fixed", "fixed | w-stable | wpw-stable")
		ring    = flag.String("semiring", "", "algebra override: min-plus | max-plus | bool-plan | any registered name (default: the instance's)")
		window  = flag.Bool("window", false, "windowed pebble schedule (hlv-banded only)")
		workers = flag.Int("workers", 0, "goroutine count (0 = GOMAXPROCS)")
		tile    = flag.Int("tile", 0, "kernel scheduling tile: (i,j) cells per claim for the hlv engines, block edge B for blocked (0 = heuristic)")
		timeout = flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		history = flag.Bool("history", false, "print per-iteration convergence history")
		tree    = flag.Bool("tree", true, "print the optimal parenthesization tree")
		splits  = flag.Bool("splits", false, "record split points during the solve (blocked engine: O(n) tree reconstruction, no value change)")
		list    = flag.Bool("engines", false, "list registered engines and exit")
		request = flag.String("request", "", "solve a wire-format JSON request from this file ('-' = stdin) and print the wire response")
	)
	flag.Parse()

	if *request != "" {
		if err := runWireRequest(*request, *timeout); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, info := range sublineardp.EngineInfos() {
			fmt.Printf("%-12s %s\n", info.Name, info.Description)
			fmt.Printf("%-12s options: %s\n", "", info.Options)
		}
		return
	}

	// The chain problems route through the chain engine registry
	// (auto | sequential | tiled | llp) and print value-vector
	// instrumentation.
	switch *problem {
	case "segls", "wis", "subsetsum":
		if err := runChainProblem(*problem, *n, *seed, *engine, *ring, *workers, *timeout, *tree); err != nil {
			fatal(err)
		}
		return
	}

	in, err := buildInstance(*problem, *n, *seed, *dims)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %s (n=%d)\n", in.Name, in.N)

	opts := []sublineardp.Option{
		sublineardp.WithWorkers(*workers),
		sublineardp.WithTileSize(*tile),
		sublineardp.WithWindow(*window),
		sublineardp.WithHistory(*history),
		sublineardp.WithSplits(*splits),
	}
	var override sublineardp.Semiring
	if *ring != "" {
		var ok bool
		if override, ok = sublineardp.LookupSemiring(*ring); !ok {
			fatal(fmt.Errorf("unknown semiring %q (registered: %v)", *ring, sublineardp.Semirings()))
		}
		opts = append(opts, sublineardp.WithSemiring(override))
	}
	switch *mode {
	case "sync":
	case "chaotic":
		opts = append(opts, sublineardp.WithMode(sublineardp.Chaotic))
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	switch *term {
	case "fixed":
	case "w-stable":
		opts = append(opts, sublineardp.WithTermination(sublineardp.WStable))
	case "wpw-stable":
		opts = append(opts, sublineardp.WithTermination(sublineardp.WPWStable))
	default:
		fatal(fmt.Errorf("unknown termination %q", *term))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The sequential reference doubles as the convergence target for the
	// iterative engines' ConvergedAt instrumentation. It runs under the
	// same deadline, and is skipped when the solve itself is the
	// sequential DP — no point solving twice.
	solvesSequentially := *engine == sublineardp.EngineSequential
	var seqRes *seq.Result
	if !solvesSequentially {
		var err error
		seqRes, err = seq.SolveSemiringCtx(ctx, in, override)
		if err != nil {
			fatal(fmt.Errorf("sequential reference aborted: %w", err))
		}
		opts = append(opts, sublineardp.WithTarget(seqRes.Table))
	}

	solver, err := sublineardp.NewSolver(*engine, opts...)
	if err != nil {
		fatal(err)
	}

	sol, err := solver.Solve(ctx, in)
	if err != nil {
		fatal(fmt.Errorf("solve aborted: %w", err))
	}
	report(in, sol, seqRes, *history)

	if *tree {
		printTree(in, sol, seqRes)
	}
}

// printTree renders the optimal parenthesization. Small instances get
// the full tree; larger ones get a one-line summary plus the wire-level
// digest, so a served reconstruction can be checked against a local
// solve without diffing an n-leaf rendering. The solution's own tree is
// preferred (it is O(n) when splits were recorded); the sequential
// reference is the fallback when the engine cannot reconstruct.
func printTree(in *recurrence.Instance, sol *sublineardp.Solution, seqRes *seq.Result) {
	tr, err := sol.Tree()
	if err != nil {
		if seqRes == nil || !seqRes.Feasible() {
			fmt.Printf("no parenthesization: %v\n", err)
			return
		}
		tr = seqRes.Tree()
	}
	if in.N <= 32 {
		fmt.Println("optimal parenthesization:")
		fmt.Print(tr.Render(nil))
		return
	}
	root := tr.NodeBySpan(0, in.N)
	fmt.Printf("optimal parenthesization: %d leaves, root split k=%d, height %d, digest %s\n",
		in.N, tr.Split(root), tr.Height(), wire.TreeDigest(tr))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dpsolve: %v\n", err)
	os.Exit(2)
}

// runChainProblem solves one chain-recurrence workload instance through
// the public ChainSolver API — the 1D counterpart of the interval path
// in main.
func runChainProblem(problem string, n int, seed int64, engine, ring string, workers int, timeout time.Duration, showPath bool) error {
	var c *sublineardp.Chain
	switch problem {
	case "segls":
		c = workload.TelemetrySeries(n, seed)
	case "wis":
		c = workload.JobSchedule(n, seed)
	case "subsetsum":
		target := int64(n)
		if target < 2 {
			target = 2
		}
		c = workload.CoinFeasibility(target, seed)
	}
	fmt.Printf("instance: %s (n=%d, %d candidates)\n", c.Name, c.N, c.NumCandidates())

	opts := []sublineardp.Option{sublineardp.WithWorkers(workers)}
	var override sublineardp.Semiring
	if ring != "" {
		var ok bool
		if override, ok = sublineardp.LookupSemiring(ring); !ok {
			return fmt.Errorf("unknown semiring %q (registered: %v)", ring, sublineardp.Semirings())
		}
		opts = append(opts, sublineardp.WithSemiring(override))
	}
	solver, err := sublineardp.NewChainSolver(engine, opts...)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	sol, err := solver.Solve(ctx, c)
	if err != nil {
		return fmt.Errorf("solve aborted: %w", err)
	}
	fmt.Printf("engine: %s\n", sol.Engine)
	if sol.Algebra != "" && sol.Algebra != "min-plus" {
		fmt.Printf("algebra: %s\n", sol.Algebra)
	}
	fmt.Printf("optimum c(%d) = %d (%.2fms)\n", c.N, sol.Cost(), float64(sol.Elapsed.Microseconds())/1000)
	fmt.Printf("work: %d candidate evaluations\n", sol.Work)
	if sol.Sweeps > 0 {
		fmt.Printf("llp sweeps: %d\n", sol.Sweeps)
	}
	if rep := verify.Chain(override, c, sol.Values); rep.OK() {
		fmt.Printf("verified: vector is the exact fixed point of the recurrence (%d cells)\n", rep.Checked)
	} else {
		fmt.Printf("WARNING: verification failed: %v\n", rep.Err())
	}
	if showPath && sol.Feasible() {
		if path, err := sol.Path(); err == nil {
			fmt.Printf("optimal breakpoints: %v\n", path)
		}
	}
	return nil
}

// runWireRequest solves one dpserved wire request locally and prints the
// wire response — the same codec the server speaks (internal/wire), so a
// request file can be debugged offline and its response diffed against a
// served one byte for byte (modulo elapsed_us).
func runWireRequest(path string, timeout time.Duration) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var req wire.Request
	if err := json.Unmarshal(data, &req); err != nil {
		return fmt.Errorf("malformed wire request: %w", err)
	}
	if err := req.Validate(0); err != nil {
		return err
	}
	engine := req.Engine()
	opts, err := req.SolverOptions()
	if err != nil {
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if wire.IsChainKind(req.Kind) {
		c, err := req.ChainInstance()
		if err != nil {
			return err
		}
		solver, err := sublineardp.NewChainSolver(engine, opts...)
		if err != nil {
			return err
		}
		sol, err := solver.Solve(ctx, c)
		if err != nil {
			return fmt.Errorf("solve aborted: %w", err)
		}
		return enc.Encode(wire.NewChainResponse(&req, sol))
	}
	in, err := req.Instance()
	if err != nil {
		return err
	}
	solver, err := sublineardp.NewSolver(engine, opts...)
	if err != nil {
		return err
	}
	sol, err := solver.Solve(ctx, in)
	if err != nil {
		return fmt.Errorf("solve aborted: %w", err)
	}
	return enc.Encode(wire.NewResponse(&req, sol))
}

// report prints the unified Solution; seqRes may be nil when the engine
// itself was the sequential DP.
func report(in *recurrence.Instance, sol *sublineardp.Solution, seqRes *seq.Result, history bool) {
	fmt.Printf("engine: %s\n", sol.Engine)
	if sol.Algebra != "" && sol.Algebra != "min-plus" {
		fmt.Printf("algebra: %s\n", sol.Algebra)
	}
	fmt.Printf("optimum c(0,%d) = %d (%.2fms)\n", in.N, sol.Cost(), float64(sol.Elapsed.Microseconds())/1000)
	if sol.Work > 0 {
		fmt.Printf("work: %d candidate evaluations\n", sol.Work)
	}
	if sol.Iterations > 0 {
		budget := core.DefaultIterations(in.N)
		if sol.Engine == sublineardp.EngineRytter {
			budget = rytter.DefaultIterations(in.N)
		}
		fmt.Printf("iterations: %d (budget %d, converged at %d, stopped early %v)\n",
			sol.Iterations, budget, sol.ConvergedAt, sol.StoppedEarly)
	}
	if sol.BandRadius > 0 {
		fmt.Printf("band radius D = %d\n", sol.BandRadius)
	}
	if sol.Acct.Steps > 0 {
		fmt.Printf("pram: %s\n", sol.Acct.String())
	}
	var srOverride sublineardp.Semiring
	if sol.Algebra != "" {
		srOverride, _ = sublineardp.LookupSemiring(sol.Algebra)
	}
	if rep := verify.TableSemiring(srOverride, in, sol.Table); rep.OK() {
		fmt.Printf("verified: table is the exact fixed point of the recurrence (%d cells)\n", rep.Checked)
	} else {
		fmt.Printf("WARNING: verification failed: %v\n", rep.Err())
	}
	if seqRes != nil && sol.Cost() != seqRes.Cost() {
		fmt.Println("WARNING: engine result disagrees with sequential DP")
	}
	if history && len(sol.History) > 0 {
		fmt.Println("iter  w-changed  pw-changed  finite-w")
		var finite []float64
		for _, st := range sol.History {
			fmt.Printf("%4d  %9d  %10d  %8d\n", st.Iter, st.WChanged, st.PWChanged, st.FiniteW)
			finite = append(finite, float64(st.FiniteW))
		}
		fmt.Println("convergence (finite w' entries per iteration):")
		fmt.Print(txtplot.Lines(48, 8, []float64{1, float64(len(finite))},
			txtplot.Series{Name: "finite w'", Ys: finite}))
	}
}

func buildInstance(problem string, n int, seed int64, dims string) (*recurrence.Instance, error) {
	switch problem {
	case "matrixchain":
		if dims != "" {
			var ds []int
			for _, part := range strings.Split(dims, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return nil, fmt.Errorf("bad dimension %q: %v", part, err)
				}
				ds = append(ds, v)
			}
			return problems.MatrixChain(ds), nil
		}
		return problems.RandomMatrixChain(n, 100, seed), nil
	case "obst":
		return problems.RandomOBST(n, 50, seed), nil
	case "triangulation":
		return problems.Triangulation(problems.RandomConvexPolygon(n, 1000, seed)), nil
	case "zigzag":
		return problems.Zigzag(n), nil
	case "balanced":
		return problems.Balanced(n), nil
	case "skewed":
		return problems.Skewed(n), nil
	case "random":
		return problems.RandomInstance(n, 100, seed), nil
	case "worstchain":
		if dims != "" {
			var ds []int
			for _, part := range strings.Split(dims, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return nil, fmt.Errorf("bad dimension %q: %v", part, err)
				}
				ds = append(ds, v)
			}
			return problems.WorstCaseMatrixChain(ds), nil
		}
		return workload.WorstCaseChain(n, seed), nil
	case "boolsplit":
		return workload.FeasibilityPlan(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown problem %q", problem)
	}
}
