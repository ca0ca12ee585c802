package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/cost"
	"sublineardp/internal/wire"
)

// kernelPrimitives are the algebra.Kernel bulk primitives the probes
// time, by metric name.
var kernelPrimitives = []string{"relax_split_row_rec", "relax_split_panel_rec", "relax_split_cell_rec", "reduce_relax"}

var probeAlgebras = []string{algebra.NameMinPlus, algebra.NameMaxPlus, algebra.NameBoolPlan}

// cellWindow is the candidate window of the relax_split_cell_rec probe:
// Knuth-Yao windows hold a few candidates per cell.
const cellWindow = 8

// kernelProbes times each algebra.Kernel primitive, per algebra, on a
// synthetic table shaped like the workload's tiles: edge
// blocked.EffectiveTileSize(tileN, 0, procs). reduce_relax folds runs of
// reduceLen candidates, the mean prefix of the workload's longest chain.
// The floor is a plain []int64 min-plus row loop of the same shape.
// Values are ns per candidate, the median of five timed batches.
func kernelProbes(tileN, reduceLen, procs int) map[string]float64 {
	b := blocked.EffectiveTileSize(tileN, 0, procs)
	stride := 2*b + 1
	out := map[string]float64{}
	for _, name := range probeAlgebras {
		k, ok := algebra.Lookup(name)
		if !ok {
			continue
		}
		rng := rand.New(rand.NewSource(1))
		val := func() cost.Cost {
			if name == algebra.NameBoolPlan {
				return cost.Cost(rng.Intn(2))
			}
			return cost.Cost(rng.Int63n(1_000_000))
		}
		tab := make([]cost.Cost, stride*stride)
		for i := range tab {
			tab[i] = val()
		}
		spl := make([]int32, len(tab))
		fRow := make([]cost.Cost, stride)
		for i := range fRow {
			fRow[i] = val()
		}
		f := func(i, k, j int) cost.Cost { return fRow[j-k] }
		a := make([]cost.Cost, reduceLen)
		bv := make([]cost.Cost, reduceLen)
		for i := range a {
			a[i], bv[i] = val(), val()
		}
		out["algebra.relax_split_row_rec."+name+".ns_per_candidate"] = nsPerCandidate(int64(b), func() {
			k.RelaxSplitRowRec(tab, spl, stride, 0, b, b+1, b, fRow[:b])
		})
		out["algebra.relax_split_panel_rec."+name+".ns_per_candidate"] = nsPerCandidate(int64(b)*int64(b), func() {
			k.RelaxSplitPanelRec(tab, spl, stride, 0, 1, b+1, b+1, b, f)
		})
		out["algebra.relax_split_cell_rec."+name+".ns_per_candidate"] = nsPerCandidate(cellWindow, func() {
			k.RelaxSplitCellRec(tab, spl, stride, 0, 1, 1+cellWindow, 2*b, f)
		})
		sh := algebra.ReduceShape{M: 1, Cnt0: reduceLen, AStep: 1, BStep: 1}
		out["algebra.reduce_relax."+name+".ns_per_candidate"] = nsPerCandidate(int64(reduceLen), func() {
			k.ReduceRelax(k.Zero(), a, bv, sh)
		})
	}
	dst := make([]int64, b)
	right := make([]int64, b)
	row := make([]int64, b)
	rng := rand.New(rand.NewSource(2))
	for i := range dst {
		dst[i], right[i], row[i] = rng.Int63n(1_000_000), rng.Int63n(1_000_000), rng.Int63n(1_000_000)
	}
	left := int64(12345)
	out["algebra.floor.ns_per_candidate"] = nsPerCandidate(int64(b), func() {
		for t := range dst {
			if v := row[t] + left + right[t]; v < dst[t] {
				dst[t] = v
			}
		}
	})
	return out
}

// nsPerCandidate times call (which evaluates cands candidates) in five
// batches of at least 10 ms each and returns the median ns per candidate.
func nsPerCandidate(cands int64, call func()) float64 {
	call()
	var per []float64
	for batch := 0; batch < 5; batch++ {
		calls := int64(0)
		start := time.Now()
		for time.Since(start) < 10*time.Millisecond {
			for i := 0; i < 16; i++ {
				call()
			}
			calls += 16
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls*cands))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// speedupVsW1 solves one instance with the named engine at workers =
// procs and at workers = 1, alternating, three times each, and returns
// median(w=1) / median(w=procs). ok is false when the workload has no
// request routed to the engine.
func (b *bench) speedupVsW1(ctx context.Context, engine string, replays []*replayed) (float64, bool, error) {
	var req *wire.Request
	for _, rp := range replays {
		if rp.solved && rp.engine == engine {
			req = b.set.Reqs[rp.idx].Req
			break
		}
	}
	if req == nil {
		return 0, false, nil
	}
	opts, err := req.SolverOptions()
	if err != nil {
		return 0, false, err
	}
	solveOnce := func(workers int) (time.Duration, error) {
		o := append(append([]sublineardp.Option(nil), opts...), sublineardp.WithWorkers(workers))
		if wire.IsChainKind(req.Kind) {
			c, err := req.ChainInstance()
			if err != nil {
				return 0, err
			}
			s, err := sublineardp.NewChainSolver(engine, o...)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = s.Solve(ctx, c)
			return time.Since(start), err
		}
		in, err := req.Instance()
		if err != nil {
			return 0, err
		}
		s, err := sublineardp.NewSolver(engine, o...)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = s.Solve(ctx, in)
		return time.Since(start), err
	}
	var w1, wn []float64
	for rep := 0; rep < 3; rep++ {
		for _, w := range []int{1, b.procs} {
			d, err := solveOnce(w)
			if err != nil {
				return 0, false, fmt.Errorf("%s speedup probe: %w", engine, err)
			}
			if w == 1 {
				w1 = append(w1, d.Seconds())
			} else {
				wn = append(wn, d.Seconds())
			}
		}
	}
	return median(w1) / median(wn), true, nil
}
