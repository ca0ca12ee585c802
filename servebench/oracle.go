package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/llp"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/wire"
)

// answer is the expected content of one response: its table digest and,
// when the request set return_splits, its reconstruction digest (or that
// no reconstruction exists).
type answer struct {
	Table     string `json:"table"`
	Rec       string `json:"rec,omitempty"`
	RecAbsent bool   `json:"rec_absent,omitempty"`
	Oracle    string `json:"oracle"`
}

// oracles computes the expected answer of every distinct request of the
// set, in-process, with an engine other than the one the server's auto
// routing picks for it. The answers are stored under dir per workload,
// seed and size, so a repeated run with the same seed loads them.
func oracles(set *requestSet, seconds int, dir string) (map[string]answer, error) {
	path := filepath.Join(dir, fmt.Sprintf("oracle-%s-s%d-t%d.json", set.Workload, set.Seed, seconds))
	if data, err := os.ReadFile(path); err == nil {
		var out map[string]answer
		if json.Unmarshal(data, &out) == nil && len(out) == len(set.distinctRequests()) {
			return out, nil
		}
	}
	reqs := set.distinctRequests()
	out := make(map[string]answer, len(reqs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan *request)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				a, err := oracle(r.Req)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle for %s: %w", r.ID, err)
				}
				out[r.ID] = a
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		next <- r
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if data, err := json.Marshal(out); err == nil {
		// A failed store only costs the next run the recomputation.
		_ = os.WriteFile(path, data, 0o644)
	}
	return out, nil
}

// oracle answers one request:
//   - interval kinds the server solves sequentially (n <= 64) or with
//     blocked-pipe (n > 256): the wavefront blocked driver;
//   - declared-convex OBSTs above the cutoff (server: blocked-ky):
//     seq.SolveKnuth;
//   - chains the server solves with llp (n > 512): seq.SolveChain;
//   - shorter chains (server: sequential): the llp engine, with the
//     witness path re-derived from its value vector.
func oracle(req *wire.Request) (answer, error) {
	if wire.IsChainKind(req.Kind) {
		c, err := req.ChainInstance()
		if err != nil {
			return answer{}, err
		}
		if c.N > sublineardp.DefaultChainAutoCutoff {
			res := seq.SolveChain(c)
			a := answer{Table: wire.VectorDigest(res.Values), Oracle: "seq.SolveChain"}
			if req.ReturnSplits {
				if res.Feasible() {
					a.Rec = wire.PathDigest(res.Path())
				} else {
					a.RecAbsent = true
				}
			}
			return a, nil
		}
		res := llp.Solve(c, llp.Options{Workers: 1})
		a := answer{Table: wire.VectorDigest(res.Values), Oracle: "llp"}
		if req.ReturnSplits {
			if path, ok := chainPath(c, res.Values); ok {
				a.Rec = wire.PathDigest(path)
			} else {
				a.RecAbsent = true
			}
		}
		return a, nil
	}
	in, err := req.Instance()
	if err != nil {
		return answer{}, err
	}
	if in.Convex && in.N > sublineardp.DefaultAutoCutoff {
		res := seq.SolveKnuth(in)
		a := answer{Table: wire.TableDigest(res.Table), Oracle: "seq.SolveKnuth"}
		if req.ReturnSplits {
			if res.Feasible() {
				a.Rec = wire.TreeDigest(res.Tree())
			} else {
				a.RecAbsent = true
			}
		}
		return a, nil
	}
	res := blocked.Solve(in, blocked.Options{Workers: 1, RecordSplits: req.ReturnSplits})
	a := answer{Table: wire.TableDigest(res.Table), Oracle: "blocked"}
	if req.ReturnSplits {
		if tr, err := recurrence.TreeFromSplits(in.N, res.Split); err == nil {
			a.Rec = wire.TreeDigest(tr)
		} else {
			a.RecAbsent = true
		}
	}
	return a, nil
}

// chainPath re-derives the smallest-k witness path of a converged chain
// vector by scanning each index's candidates — the reconstruction rule
// every chain engine shares. ok is false when c(N) is the algebra's Zero.
func chainPath(c *recurrence.Chain, v *recurrence.Vector) ([]int, bool) {
	k, err := algebra.Resolve(nil, c.Algebra)
	if err != nil || k.IsZero(v.Root()) {
		return nil, false
	}
	path := []int{c.N}
	for j := c.N; j > 0; {
		pred := -1
		target := k.Norm(v.At(j))
		for kk := c.Lo(j); kk < j; kk++ {
			if k.Norm(k.Extend(v.At(kk), c.F(kk, j))) == target {
				pred = kk
				break
			}
		}
		if pred < 0 {
			return nil, false
		}
		path = append(path, pred)
		j = pred
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

// check compares one 200 response against its expected answer.
func check(resp *wire.Response, req *wire.Request, want answer) error {
	if resp.TableDigest != want.Table {
		return fmt.Errorf("table_digest %s, oracle %s (%s)", short(resp.TableDigest), short(want.Table), want.Oracle)
	}
	if !req.ReturnSplits {
		return nil
	}
	if resp.Reconstruction == nil {
		return fmt.Errorf("return_splits set but the response has no reconstruction")
	}
	got := resp.Reconstruction
	switch {
	case want.RecAbsent && got.Digest != "":
		return fmt.Errorf("reconstruction digest %s, but the oracle finds no solution path", short(got.Digest))
	case !want.RecAbsent && got.Digest != want.Rec:
		return fmt.Errorf("reconstruction digest %s, oracle %s (%s)", short(got.Digest), short(want.Rec), want.Oracle)
	}
	return nil
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
