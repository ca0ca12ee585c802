package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
	"sublineardp/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postSolve(t *testing.T, url string, req *wire.Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, body)
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"dpserved_requests_total",
		"dpserved_cache_hits_total",
		"dpserved_solve_latency_seconds_bucket{le=\"+Inf\"}",
		"# TYPE dpserved_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestSolveMatchesDirectSolve(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	req := &wire.Request{
		ID:       "t-1",
		Kind:     wire.KindMatrixChain,
		Dims:     []int{30, 35, 15, 5, 10, 20, 25},
		WantTree: true,
	}
	resp, body := postSolve(t, hs.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.ID != "t-1" || wr.Kind != wire.KindMatrixChain {
		t.Fatalf("echo fields wrong: %+v", wr)
	}
	if wr.Cost != int64(problems.CLRSOptimalCost) {
		t.Fatalf("cost %d, want %d", wr.Cost, problems.CLRSOptimalCost)
	}
	direct, err := sublineardp.MustNewSolver(sublineardp.EngineAuto).
		Solve(context.Background(), problems.CLRSMatrixChain())
	if err != nil {
		t.Fatal(err)
	}
	if wr.TableDigest != wire.TableDigest(direct.Table) {
		t.Fatal("served table digest differs from direct solve")
	}
	if wr.Tree == "" {
		t.Fatal("want_tree set but no tree returned")
	}
	if m := srv.Metrics(); m.OK != 1 || m.Solved != 1 || m.CacheHits != 0 {
		t.Fatalf("metrics %+v, want 1 ok / 1 solved", m)
	}
}

func TestBadRequestsAre400(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxN: 8})
	cases := []*wire.Request{
		{Kind: "nope"},
		{Kind: wire.KindMatrixChain, Dims: []int{4}},
		{Kind: wire.KindOBST, Alpha: []int64{1}, Beta: []int64{1, 2}},
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3}, Options: wire.Options{Engine: "warp-drive"}},
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3}, Options: wire.Options{Mode: "frantic"}},
		// n=9 exceeds MaxN=8
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for i, req := range cases {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
		var eb wire.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" || eb.Code != 400 {
			t.Errorf("case %d: malformed error body %s", i, body)
		}
	}
	// Malformed JSON entirely.
	resp, err := http.Post(hs.URL+"/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if m := srv.Metrics(); m.BadRequests != int64(len(cases))+1 || m.OK != 0 {
		t.Errorf("metrics %+v, want %d bad requests", srv.Metrics(), len(cases)+1)
	}
}

// Feasible instances whose optimum overflows the cost domain get a 400
// whose body is the frozen wire golden — never a 200 carrying cost.Inf,
// which reads as "unreachable" — and their just-under-bound twins still
// solve exactly.
func TestCostOverflowIs400(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for golden, body := range map[string]string{
		"error_cost_overflow_matrixchain.json":    `{"kind":"matrixchain","dims":[3000000,3000000,3000000,3000000]}`,
		"error_cost_overflow_wtriangulation.json": `{"kind":"wtriangulation","weights":[3000000,3000000,3000000]}`,
		"error_cost_overflow_obst.json":           `{"kind":"obst","alpha":[4000000000000000000,4000000000000000000],"beta":[4000000000000000000]}`,
		"error_cost_overflow_wis.json":            `{"kind":"wis","starts":[0,10,20],"ends":[5,15,25],"weights":[4000000000000000000,4000000000000000000,4000000000000000000]}`,
		"error_cost_overflow_triangulation.json":  `{"kind":"triangulation","points":[{"x":0,"y":0},{"x":4000000000000000000,"y":0},{"x":4000000000000000000,"y":4000000000000000000},{"x":0,"y":4000000000000000000}]}`,
		"error_cost_overflow_segls.json":          `{"kind":"segls","points":[{"x":0,"y":0},{"x":1,"y":3000000000},{"x":2,"y":-3000000000},{"x":3,"y":3000000000}],"penalty":4000000000000000000}`,
	} {
		resp, got := postRaw(t, hs.URL, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, got)
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "wire", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var gotBody, wantBody wire.ErrorBody
		if err := json.Unmarshal(got, &gotBody); err != nil {
			t.Fatalf("%s: malformed error body %s", body, got)
		}
		if err := json.Unmarshal(want, &wantBody); err != nil {
			t.Fatal(err)
		}
		if gotBody != wantBody {
			t.Errorf("%s: error body %+v, golden %s says %+v", body, gotBody, golden, wantBody)
		}
	}
	for _, req := range []*wire.Request{
		{Kind: wire.KindMatrixChain, Dims: []int{1000000, 1000000, 1000000, 1000000}},
		{Kind: wire.KindWTriangulation, Weights: []int64{1300000, 1300000, 1300000}},
		{Kind: wire.KindOBST, Alpha: []int64{5e17, 5e17}, Beta: []int64{1.5e17}},
		{Kind: wire.KindTriangulation, Points: []wire.Point{{X: 0, Y: 0}, {X: 18e13, Y: 0}, {X: 18e13, Y: 18e13}, {X: 0, Y: 18e13}}},
		{Kind: wire.KindSegLS, Points: []wire.Point{{X: 0, Y: 0}, {X: 1, Y: 1e6}, {X: 2, Y: -1e6}, {X: 3, Y: 1e6}}, Penalty: 55e16},
	} {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s just under the bound: status %d (%s), want 200", req.Kind, resp.StatusCode, body)
		}
		var wr wire.Response
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		var want cost.Cost
		if wire.IsChainKind(req.Kind) {
			c, err := req.ChainInstance()
			if err != nil {
				t.Fatal(err)
			}
			want = seq.SolveChain(c).Cost()
		} else {
			in, err := req.Instance()
			if err != nil {
				t.Fatal(err)
			}
			want = seq.Solve(in).Cost()
		}
		if wr.Cost != int64(want) || want < 0 || cost.IsInf(want) {
			t.Errorf("%s just under the bound: cost %d, seq %d", req.Kind, wr.Cost, want)
		}
	}
	// The wis twin sums to 2.1e18 < cost.Inf: the served vector must be
	// the dense scan's, which folds every candidate, not just the support.
	wis := &wire.Request{Kind: wire.KindWIS, Starts: []int64{0, 10, 20}, Ends: []int64{5, 15, 25},
		Weights: []int64{7e17, 7e17, 7e17}}
	resp, body := postSolve(t, hs.URL, wis)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wis just under the bound: status %d (%s), want 200", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	c, err := wis.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	want := seq.SolveChain(c)
	if wr.Cost != 21e17 || wr.Cost != int64(want.Cost()) || wr.TableDigest != wire.VectorDigest(want.Values) {
		t.Errorf("wis just under the bound: cost %d digest %s, dense seq.SolveChain %d %s",
			wr.Cost, wr.TableDigest, want.Cost(), wire.VectorDigest(want.Values))
	}
}

// TestResourcePolicyRejections pins the engine-aware admission policy:
// O(n^4)-memory engines get the stricter MaxNHeavy size bound, and the
// per-request workers option is capped — both are single-request
// denial-of-service vectors otherwise.
func TestResourcePolicyRejections(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxNHeavy: 16, MaxWorkers: 8})
	bigDims := make([]int, 20) // n=19 > MaxNHeavy, fine for default engines
	for i := range bigDims {
		bigDims[i] = i + 2
	}
	rejected := []*wire.Request{
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "hlv-dense"}},
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "rytter"}},
		// The retired "semiring" alias is an unknown engine like any other.
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "semiring"}},
		{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4}, Options: wire.Options{Workers: 9}},
	}
	for i, req := range rejected {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
	}
	accepted := []*wire.Request{
		// Same size is fine on the banded engine...
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "hlv-banded"}},
		// ...and on the O(n^2)-memory blocked engine, which is exempt
		// from the heavy cap by design — it exists for big instances.
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "blocked"}},
		// ...and a small instance is fine on a heavy engine.
		{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4}, Options: wire.Options{Engine: "hlv-dense", Workers: 8}},
	}
	for i, req := range accepted {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("accepted case %d: status %d (%s), want 200", i, resp.StatusCode, body)
		}
	}
	if m := srv.Metrics(); m.BadRequests != int64(len(rejected)) || m.OK != int64(len(accepted)) {
		t.Errorf("metrics %+v, want %d rejections / %d ok", m, len(rejected), len(accepted))
	}
}

func TestCacheHitServedWithoutSolving(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	req := &wire.Request{Kind: wire.KindOBST,
		Alpha: []int64{1, 2, 1, 0, 1}, Beta: []int64{4, 2, 6, 3}}

	_, body1 := postSolve(t, hs.URL, req)
	resp2, body2 := postSolve(t, hs.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: %d %s", resp2.StatusCode, body2)
	}
	var r1, r2 wire.Response
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cached flags: first %v second %v, want false/true", r1.Cached, r2.Cached)
	}
	if r1.Cost != r2.Cost || r1.TableDigest != r2.TableDigest {
		t.Fatal("cached response differs from solved response")
	}
	m := srv.Metrics()
	if m.Solved != 1 || m.CacheHits != 1 || m.BatchInstances != 1 {
		t.Fatalf("metrics %+v, want 1 solved / 1 hit / 1 batched instance", m)
	}
}

// Every wire.Options field optionsSig keys (dplint's keycoverage check
// holds the list complete) must split the cache: a request differing
// from an already-answered one in that field alone is a fresh solve,
// never a hit. Where the two configurations solve to the same table,
// the digests must match too.
func TestDifferentOptionsDoNotShareCacheEntries(t *testing.T) {
	banded := wire.Options{Engine: "hlv-banded"}
	blocked := wire.Options{Engine: "blocked"}
	cases := []struct {
		field     string
		base      wire.Options
		variant   func(*wire.Options)
		sameTable bool
	}{
		{"engine", wire.Options{}, func(o *wire.Options) { o.Engine = "blocked" }, true},
		{"mode", banded, func(o *wire.Options) { o.Mode = "chaotic" }, true},
		{"termination", banded, func(o *wire.Options) { o.Termination = "w-stable" }, true},
		{"semiring", wire.Options{}, func(o *wire.Options) { o.Semiring = "max-plus" }, false},
		{"max_iterations", banded, func(o *wire.Options) { o.MaxIterations = 50 }, true},
		{"band_radius", banded, func(o *wire.Options) { o.BandRadius = 3 }, true},
		{"window", banded, func(o *wire.Options) { o.Window = true }, true},
		{"tile_size", blocked, func(o *wire.Options) { o.TileSize = 2 }, true},
		{"workers", blocked, func(o *wire.Options) { o.Workers = 1 }, true},
		{"auto_cutoff", wire.Options{}, func(o *wire.Options) { o.AutoCutoff = 2 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			srv, hs := newTestServer(t, Config{})
			base := &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{8, 3, 9, 4, 7, 2, 8}, Options: tc.base}
			variant := *base
			tc.variant(&variant.Options)
			if variant.Options == base.Options {
				t.Fatal("the variant changes no option")
			}
			var r [2]wire.Response
			for i, req := range []*wire.Request{base, &variant} {
				resp, body := postSolve(t, hs.URL, req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
				}
				if err := json.Unmarshal(body, &r[i]); err != nil {
					t.Fatal(err)
				}
				if m := srv.Metrics(); r[i].Cached || m.Solved != int64(i+1) || m.CacheHits != 0 {
					t.Fatalf("request %d: cached %v, metrics %+v, want a miss solved afresh", i, r[i].Cached, m)
				}
			}
			if tc.sameTable && r[0].TableDigest != r[1].TableDigest {
				t.Fatalf("table digest %s, base %s", r[1].TableDigest, r[0].TableDigest)
			}
		})
	}
}

// Options are keyed by meaning, not spelling: a variant that only spells
// out what its base already meant — the default mode or termination, or
// the semiring the instance declares — answers from the base's entry.
func TestEquivalentOptionSpellingsShareCacheEntries(t *testing.T) {
	banded := wire.Options{Engine: "hlv-banded"}
	dims := []int{8, 3, 9, 4, 7, 2, 8}
	starts, ends, weights := problems.RandomJobs(20, 5)
	cases := []struct {
		name    string
		base    wire.Request
		variant func(*wire.Options)
	}{
		{"mode", wire.Request{Kind: wire.KindMatrixChain, Dims: dims, Options: banded},
			func(o *wire.Options) { o.Mode = "sync" }},
		{"termination", wire.Request{Kind: wire.KindMatrixChain, Dims: dims, Options: banded},
			func(o *wire.Options) { o.Termination = "fixed" }},
		{"semiring_default", wire.Request{Kind: wire.KindMatrixChain, Dims: dims},
			func(o *wire.Options) { o.Semiring = "min-plus" }},
		{"semiring_declared", wire.Request{Kind: wire.KindWorstChain, Dims: dims},
			func(o *wire.Options) { o.Semiring = "max-plus" }},
		{"semiring_declared_chain", wire.Request{Kind: wire.KindWIS, Starts: starts, Ends: ends, Weights: weights},
			func(o *wire.Options) { o.Semiring = "max-plus" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs := newTestServer(t, Config{})
			variant := tc.base
			tc.variant(&variant.Options)
			if variant.Options == tc.base.Options {
				t.Fatal("the variant changes no option")
			}
			var r [2]wire.Response
			for i, req := range []*wire.Request{&tc.base, &variant} {
				resp, body := postSolve(t, hs.URL, req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
				}
				if err := json.Unmarshal(body, &r[i]); err != nil {
					t.Fatal(err)
				}
				if m := srv.Metrics(); r[i].Cached != (i == 1) || m.Solved != 1 {
					t.Fatalf("request %d: cached %v, metrics %+v, want one solve and then a hit", i, r[i].Cached, m)
				}
			}
			if r[0].TableDigest != r[1].TableDigest {
				t.Fatalf("table digest %s, base %s", r[1].TableDigest, r[0].TableDigest)
			}
		})
	}
}

// An explicit semiring wins over the instance's declared algebra, min-plus
// included: a worstchain (declared max-plus) solved under min-plus is the
// plain matrix chain.
func TestMinPlusOverrideWinsOverDeclaredAlgebra(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	dims := []int{8, 3, 9, 4, 7, 2, 8}
	var r [2]wire.Response
	for i, req := range []*wire.Request{
		{Kind: wire.KindWorstChain, Dims: dims, Options: wire.Options{Semiring: "min-plus"}},
		{Kind: wire.KindMatrixChain, Dims: dims},
	} {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &r[i]); err != nil {
			t.Fatal(err)
		}
	}
	if r[0].TableDigest != r[1].TableDigest || r[0].Cost != r[1].Cost || r[0].Algebra != "" {
		t.Fatalf("worstchain under min-plus: cost %d digest %s algebra %q, matrixchain cost %d digest %s",
			r[0].Cost, r[0].TableDigest, r[0].Algebra, r[1].Cost, r[1].TableDigest)
	}
}

// A request without a semiring override and one naming another
// instance's declared algebra share a batch signature, and a batch
// solves under its lead's options: both must still solve under their
// own algebra. The lone first request makes the server busy, so the
// pair collects into one batch, led by the worstchain.
func TestBatchLeadWithoutOverrideKeepsMembersAlgebra(t *testing.T) {
	srv, hs := newTestServer(t, Config{BatchWindow: 300 * time.Millisecond, MaxBatch: 8})
	if resp, body := postSolve(t, hs.URL, &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4, 5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	dims := []int{8, 3, 9, 4, 7, 2, 8}
	reqs := []*wire.Request{
		{Kind: wire.KindWorstChain, Dims: dims},
		{Kind: wire.KindMatrixChain, Dims: dims, Options: wire.Options{Semiring: "max-plus"}},
	}
	got := make([]wire.Response, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postSolve(t, hs.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &got[i]); err != nil {
				t.Error(err)
			}
		}()
		time.Sleep(20 * time.Millisecond) // the worstchain leads the batch
	}
	wg.Wait()
	if m := srv.Metrics(); m.Batches != 2 || m.Solved != 3 {
		t.Fatalf("metrics %+v, want the pair solved in one second batch", m)
	}
	for i, req := range reqs {
		want, _ := directDigest(t, req)
		if got[i].TableDigest != want || got[i].Algebra != "max-plus" {
			t.Errorf("request %d: digest %s algebra %q, want %s under max-plus", i, got[i].TableDigest, got[i].Algebra, want)
		}
	}
}

func TestAdmissionQueueShedsWith503(t *testing.T) {
	// QueueDepth 1 and a parked engine: the first request holds the only
	// slot while its solve waits for release, the second is shed
	// immediately.
	eng := registerBlockEngine(t, "shed-block")
	srv, hs := newTestServer(t, Config{QueueDepth: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(t, hs.URL, &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4},
			Options: wire.Options{Engine: eng.name}})
	}()
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the engine")
	}
	resp, body := postSolve(t, hs.URL, &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{5, 6, 7}})
	close(eng.release)
	wg.Wait()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if m := srv.Metrics(); m.RejectedFull != 1 {
		t.Fatalf("metrics %+v, want 1 rejection", m)
	}
}

func TestRequestTimeoutIs504(t *testing.T) {
	srv, hs := newTestServer(t, Config{RequestTimeout: time.Millisecond})
	// A banded solve of a big instance cannot finish in 1ms.
	dims := make([]int, 301)
	for i := range dims {
		dims[i] = (i*37)%97 + 3
	}
	req := &wire.Request{Kind: wire.KindMatrixChain, Dims: dims,
		Options: wire.Options{Engine: "hlv-banded"}}
	resp, body := postSolve(t, hs.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if m := srv.Metrics(); m.Timeouts != 1 {
		t.Fatalf("metrics %+v, want 1 timeout", m)
	}
}

func TestBatcherCoalescesAWindow(t *testing.T) {
	// Distinct instances arriving within one long window must be folded
	// into few SolveBatch dispatches, not one per request.
	srv, hs := newTestServer(t, Config{BatchWindow: 150 * time.Millisecond, MaxBatch: 64})
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &wire.Request{Kind: wire.KindMatrixChain,
				Dims: []int{i + 2, i + 3, i + 4, i + 5}}
			resp, body := postSolve(t, hs.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("req %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	m := srv.Metrics()
	if m.Solved != n || m.BatchInstances != n {
		t.Fatalf("metrics %+v, want %d solved instances", m, n)
	}
	if m.Batches >= n/2 {
		t.Fatalf("%d batches for %d concurrent requests: batcher not coalescing", m.Batches, n)
	}
}

// A miss on a quiet server dispatches at once: the window caps the batch
// wait instead of adding it to every lone request.
func TestBatcherDispatchesAtOnceWhenQuiet(t *testing.T) {
	const window = 2 * time.Second
	_, hs := newTestServer(t, Config{BatchWindow: window})
	solveFast := func(dims []int) time.Time {
		start := time.Now()
		resp, body := postSolve(t, hs.URL, &wire.Request{Kind: wire.KindMatrixChain, Dims: dims})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
		}
		if d := time.Since(start); d > window/4 {
			t.Fatalf("lone request took %v on a quiet server (window %v)", d, window)
		}
		return time.Now()
	}
	done := solveFast([]int{2, 3, 4, 5})
	// The first batch dispatched before its response arrived, so a
	// window after that the server is quiet again.
	time.Sleep(time.Until(done.Add(window)))
	solveFast([]int{3, 4, 5, 6})
}

// A burst arriving just after a dispatch waits out the rest of that
// window, folded into one batch, and no request waits longer than it.
func TestBatcherBurstAfterDispatchWaitsAtMostAWindow(t *testing.T) {
	const window = 500 * time.Millisecond
	srv, hs := newTestServer(t, Config{BatchWindow: window, MaxBatch: 64})
	loneStart := time.Now()
	if resp, body := postSolve(t, hs.URL, &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4, 5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
	}
	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, body := postSolve(t, hs.URL, &wire.Request{Kind: wire.KindMatrixChain,
				Dims: []int{i + 3, i + 4, i + 5, i + 6}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("req %d: %d %s", i, resp.StatusCode, body)
			}
			if d := time.Since(start); d > 2*window {
				t.Errorf("req %d waited %v, more than the %v window allows", i, d, window)
			}
		}(i)
	}
	wg.Wait()
	// The lone request dispatched after loneStart, and the burst's batch
	// no sooner than a window after that.
	if d := time.Since(loneStart); d < window {
		t.Fatalf("burst answered %v after the previous dispatch, inside one %v window", d, window)
	}
	m := srv.Metrics()
	if m.Solved != burst+1 || m.BatchInstances != burst+1 {
		t.Fatalf("metrics %+v, want %d solved instances", m, burst+1)
	}
	if m.Batches-1 >= burst/2 {
		t.Fatalf("%d batches for a burst of %d: batcher not coalescing", m.Batches-1, burst)
	}
}

// The wire option auto_large_cutoff is accepted and ignored: a request
// carrying it answers with its twin's body, from its twin's cache entry.
func TestAutoLargeCutoffIsIgnored(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	dims := make([]int, 101) // n = 100: above the default auto cutoff
	for i := range dims {
		dims[i] = (i*7)%13 + 1
	}
	var bodies [2]wire.Response
	for i, large := range []int{0, 4} {
		resp, body := postSolve(t, hs.URL, &wire.Request{
			ID: "alc", Kind: wire.KindMatrixChain, Dims: dims,
			Options: wire.Options{AutoLargeCutoff: large},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("auto_large_cutoff=%d: status %d: %s", large, resp.StatusCode, body)
		}
		bodies[i] = decodeResponse(t, body)
	}
	if bodies[0].Engine != sublineardp.EngineBlockedPipe {
		t.Errorf("n=100 auto solve ran %q, want %q", bodies[0].Engine, sublineardp.EngineBlockedPipe)
	}
	if bodies[0].Cached || !bodies[1].Cached {
		t.Errorf("cached = %v then %v, want a miss then a hit", bodies[0].Cached, bodies[1].Cached)
	}
	if got, want := stripPerRequest(t, bodies[1]), stripPerRequest(t, bodies[0]); !bytes.Equal(got, want) {
		t.Errorf("auto_large_cutoff changed the body:\n with    %s\n without %s", got, want)
	}
}
