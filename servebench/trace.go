package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sublineardp"
	"sublineardp/internal/cache"
	"sublineardp/internal/parutil"
	"sublineardp/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the replay's
// start; Parent indexes the replay's span list (-1 for a request root).
// Probe marks a call the benchmark adds to time a step the enclosing
// layer performs internally (wire.digest and recurrence.reconstruct run
// again inside NewResponse); probes are excluded from the request's
// layer sum.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int, probe bool) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0)), Probe: probe})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// replayed is the layer breakdown of one request replayed in-process.
type replayed struct {
	idx                           int // position in the measured sequence; -1 for the warm-up pass
	decode, hash, get, solve, add time.Duration
	digest, reconstruct, encode   time.Duration // encode is self time: NewResponse + json.Marshal
	marshal                       time.Duration
	solved, reconstructed         bool
	engine                        string
	work                          int64
	sweeps                        int
	stats                         parutil.StatsView
	canonBytes                    int
	digestBytes                   int64
	answerErr                     error
}

// layerSum is the server-side work the replay attributes to the request:
// every layer on its path up to the response object, excluding the
// probes and the final json.Marshal (dpserved stamps elapsed_us before
// marshalling).
func (r *replayed) layerSum() time.Duration {
	return r.decode + r.hash + r.get + r.solve + r.add + r.encode - r.marshal
}

// replayLimit bounds how many measured requests the replay re-runs, so a
// traced solve-large run stays within its time and memory budget.
func replayLimit(workload string) int {
	switch workload {
	case wlServeHot:
		return 2000
	case wlServeCold:
		return 300
	}
	return 24
}

// serverMaxN is dpserved's default -maxn.
const serverMaxN = 4096

// replay re-runs the workload's set-up pass and the first replayLimit
// measured requests in-process, one at a time, through each layer's
// public functions, against caches sized like the server's.
func (b *bench) replay(ctx context.Context) (*tracer, []*replayed, error) {
	tr := &tracer{t0: time.Now()}
	lru := cache.New[*sublineardp.Solution](4096, 16)
	clru := cache.New[*sublineardp.ChainSolution](4096, 16)
	var out []*replayed
	for _, r := range b.set.Warm {
		if _, err := replayOne(ctx, tr, -1, r, lru, clru, b.answers); err != nil {
			return nil, nil, err
		}
	}
	for i, r := range b.set.Reqs {
		if i >= replayLimit(b.set.Workload) {
			break
		}
		rp, err := replayOne(ctx, tr, i, r, lru, clru, b.answers)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, rp)
	}
	return tr, out, nil
}

// optionsSig mirrors dpserved's options signature, so the replayed hash
// covers the same bytes.
func optionsSig(engine string, o wire.Options, splits bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%s|%d|%d|%v|%d|%d|%d|%d|%v",
		engine, o.Mode, o.Termination, o.Semiring, o.MaxIterations,
		o.BandRadius, o.Window, o.TileSize, o.Workers, o.AutoCutoff, o.AutoLargeCutoff,
		splits)
	return b.String()
}

func replayOne(ctx context.Context, tr *tracer, idx int, r *request,
	lru *cache.Sharded[*sublineardp.Solution], clru *cache.Sharded[*sublineardp.ChainSolution],
	answers map[string]answer) (*replayed, error) {
	rp := &replayed{idx: idx}
	root := tr.begin("request", idx, -1, false)
	defer tr.end(root)

	s := tr.begin("wire.decode", idx, root, false)
	var req wire.Request
	if err := json.Unmarshal(r.Body, &req); err != nil {
		return nil, fmt.Errorf("replay %s: %w", r.ID, err)
	}
	if err := req.Validate(serverMaxN); err != nil {
		return nil, fmt.Errorf("replay %s: %w", r.ID, err)
	}
	opts, err := req.SolverOptions()
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", r.ID, err)
	}
	isChain := wire.IsChainKind(req.Kind)
	var in *sublineardp.Instance
	var ch *sublineardp.Chain
	if isChain {
		ch, err = req.ChainInstance()
	} else {
		in, err = req.Instance()
	}
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", r.ID, err)
	}
	rp.decode = tr.end(s)

	engine := req.Engine()
	if engine == "" {
		engine = sublineardp.EngineAuto // also the chain registry's "auto"
	}
	s = tr.begin("cache.hash", idx, root, false)
	var key cache.Key
	if isChain {
		canon, _ := ch.Canonical()
		rp.canonBytes = len(canon)
		key = cache.NewHasher().Bytes("chain", canon).String("opts", "chain|"+optionsSig(engine, req.Options, false)).Sum()
	} else {
		canon, _ := in.Canonical()
		rp.canonBytes = len(canon)
		key = cache.NewHasher().Bytes("instance", canon).String("opts", optionsSig(engine, req.Options, req.ReturnSplits)).Sum()
	}
	rp.hash = tr.end(s)

	var resp *wire.Response
	if isChain {
		s = tr.begin("cache.get", idx, root, false)
		csol, hit := clru.Get(key)
		rp.get = tr.end(s)
		if !hit {
			s = tr.begin("solver.solve", idx, root, false)
			solver, err := sublineardp.NewChainSolver(engine, opts...)
			if err == nil {
				csol, err = solver.Solve(ctx, ch)
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", r.ID, err)
			}
			rp.solve = tr.end(s)
			rp.solved, rp.engine, rp.work, rp.sweeps = true, csol.Engine, csol.Work, csol.Sweeps
			s = tr.begin("cache.add", idx, root, false)
			clru.Add(key, csol)
			rp.add = tr.end(s)
		}
		cp := *csol
		enc := tr.begin("wire.encode", idx, root, false)
		s = tr.begin("wire.digest", idx, enc, true)
		digest := wire.VectorDigest(cp.Values)
		rp.digest = tr.end(s)
		rp.digestBytes = int64(cp.Values.N+1) * 8
		if req.ReturnSplits {
			s = tr.begin("recurrence.reconstruct", idx, enc, true)
			cp.Path()
			rp.reconstruct, rp.reconstructed = tr.end(s), true
		}
		resp, rp.marshal = encodeTimed(func() *wire.Response { return wire.NewChainResponse(&req, &cp) })
		rp.encode = tr.end(enc) - rp.digest - rp.reconstruct
		if digest != resp.TableDigest {
			rp.answerErr = fmt.Errorf("probe digest differs from the response's")
		}
	} else {
		s = tr.begin("cache.get", idx, root, false)
		sol, hit := lru.Get(key)
		rp.get = tr.end(s)
		if !hit {
			s = tr.begin("solver.solve", idx, root, false)
			solver, err := sublineardp.NewSolver(engine, opts...)
			if err == nil {
				sol, err = solver.Solve(ctx, in)
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", r.ID, err)
			}
			rp.solve = tr.end(s)
			rp.solved, rp.engine, rp.stats = true, sol.Engine, sol.Stats
			rp.work = sol.Work
			if rp.work == 0 {
				rp.work = sol.Acct.Work
			}
			s = tr.begin("cache.add", idx, root, false)
			lru.Add(key, sol)
			rp.add = tr.end(s)
		}
		cp := *sol
		enc := tr.begin("wire.encode", idx, root, false)
		s = tr.begin("wire.digest", idx, enc, true)
		digest := wire.TableDigest(cp.Table)
		rp.digest = tr.end(s)
		rp.digestBytes = int64(cp.Table.N) * int64(cp.Table.N+1) / 2 * 8
		if req.ReturnSplits {
			s = tr.begin("recurrence.reconstruct", idx, enc, true)
			cp.Tree()
			rp.reconstruct, rp.reconstructed = tr.end(s), true
		}
		resp, rp.marshal = encodeTimed(func() *wire.Response { return wire.NewResponse(&req, &cp) })
		rp.encode = tr.end(enc) - rp.digest - rp.reconstruct
		if digest != resp.TableDigest {
			rp.answerErr = fmt.Errorf("probe digest differs from the response's")
		}
	}
	if rp.answerErr == nil {
		rp.answerErr = check(resp, &req, answers[r.ID])
	}
	return rp, nil
}

// encodeTimed builds a response and marshals it, returning the marshal
// time.
func encodeTimed(build func() *wire.Response) (*wire.Response, time.Duration) {
	resp := build()
	start := time.Now()
	_, _ = json.Marshal(resp) // a Response always marshals
	return resp, time.Since(start)
}
