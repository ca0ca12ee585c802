package serve

// End-to-end suite: a real dpserved serving stack — Server mounted on an
// http.Server bound to a loopback listener, talked to over TCP by real
// HTTP clients — under concurrent mixed traffic. Runs in the CI race
// job. The first four tests carry the acceptance criteria of the
// serving layer:
//
//   - mixed matrixchain/OBST/triangulation traffic answers bitwise
//     identically to direct Solver.Solve calls, and the coalescing /
//     caching counters balance exactly against the 200s written;
//   - >= 2 concurrent identical requests produce exactly one underlying
//     solve (single-flight), and a subsequent identical request is a
//     cache hit served without touching the pool;
//   - a client disconnect mid-solve propagates through single-flight
//     refcounting into the engine's context — the hook tile-level kernel
//     abort hangs off;
//   - that cancellation is per request: a sibling miss solving at the
//     same time under the same options keeps running.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
	"sublineardp/internal/wire"
)

// startLoopback serves s on a real loopback TCP listener (not httptest's
// in-process transport shortcuts) and returns the base URL.
func startLoopback(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// blockSolveEngine wraps the sequential engine but parks inside Solve
// until released or cancelled — the instrument that keeps a flight open
// long enough to make coalescing assertions deterministic.
type blockSolveEngine struct {
	name      string
	entered   chan struct{} // one value per Solve that starts
	release   chan struct{}
	cancelled chan struct{} // one value per Solve that observed ctx.Done
	calls     atomic.Int64
}

func (e *blockSolveEngine) Name() string { return e.name }

func (e *blockSolveEngine) Solve(ctx context.Context, in *sublineardp.Instance, cfg *sublineardp.Config) (*sublineardp.Solution, error) {
	e.calls.Add(1)
	e.entered <- struct{}{}
	select {
	case <-e.release:
	case <-ctx.Done():
		e.cancelled <- struct{}{}
		return nil, ctx.Err()
	}
	inner, _ := sublineardp.LookupEngine(sublineardp.EngineSequential)
	return inner.Solve(ctx, in, cfg)
}

// blockEngineSeq numbers registrations: the engine registry is
// process-global and has no Unregister, so each call takes a fresh name
// and the suite can run more than once in one process (-count=N).
var blockEngineSeq atomic.Int64

func registerBlockEngine(t *testing.T, prefix string) *blockSolveEngine {
	t.Helper()
	name := fmt.Sprintf("%s-%d", prefix, blockEngineSeq.Add(1))
	e := &blockSolveEngine{
		name:      name,
		entered:   make(chan struct{}, 64),
		release:   make(chan struct{}),
		cancelled: make(chan struct{}, 64),
	}
	if err := sublineardp.RegisterEngine(e); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return e
}

// mixedRequests builds the traffic mix: matrixchain, OBST and
// triangulation instances across engines, sized on both sides of the
// auto cutoff, with deliberate duplicates so the cache and coalescer see
// repeat keys.
func mixedRequests() []*wire.Request {
	rng := rand.New(rand.NewSource(7))
	var reqs []*wire.Request
	for i := 0; i < 6; i++ {
		dims := make([]int, 8+rng.Intn(10))
		for j := range dims {
			dims[j] = 1 + rng.Intn(40)
		}
		reqs = append(reqs, &wire.Request{
			ID: fmt.Sprintf("mc-%d", i), Kind: wire.KindMatrixChain, Dims: dims,
		})
	}
	for i := 0; i < 5; i++ {
		m := 6 + rng.Intn(8)
		alpha := make([]int64, m+1)
		beta := make([]int64, m)
		for j := range alpha {
			alpha[j] = rng.Int63n(50)
		}
		for j := range beta {
			beta[j] = rng.Int63n(50)
		}
		reqs = append(reqs, &wire.Request{
			ID: fmt.Sprintf("ob-%d", i), Kind: wire.KindOBST, Alpha: alpha, Beta: beta,
		})
	}
	for i := 0; i < 4; i++ {
		pts := problems.RandomConvexPolygon(8+rng.Intn(8), 1000, int64(i+1))
		wpts := make([]wire.Point, len(pts))
		for j, p := range pts {
			wpts[j] = wire.Point{X: p.X, Y: p.Y}
		}
		reqs = append(reqs, &wire.Request{
			ID: fmt.Sprintf("tr-%d", i), Kind: wire.KindTriangulation, Points: wpts,
		})
	}
	// A large instance routed to the banded engine explicitly, and the
	// CLRS chain under three engines (distinct cache keys, same table).
	big := make([]int, 81)
	for j := range big {
		big[j] = (j*31)%59 + 2
	}
	reqs = append(reqs,
		&wire.Request{ID: "big", Kind: wire.KindMatrixChain, Dims: big,
			Options: wire.Options{Engine: "hlv-banded", Termination: "w-stable"}},
		&wire.Request{ID: "clrs-seq", Kind: wire.KindMatrixChain,
			Dims: []int{30, 35, 15, 5, 10, 20, 25}, Options: wire.Options{Engine: "sequential"}},
		&wire.Request{ID: "clrs-wave", Kind: wire.KindMatrixChain,
			Dims: []int{30, 35, 15, 5, 10, 20, 25}, Options: wire.Options{Engine: "wavefront"}},
		&wire.Request{ID: "clrs-ryt", Kind: wire.KindMatrixChain,
			Dims: []int{30, 35, 15, 5, 10, 20, 25}, Options: wire.Options{Engine: "rytter"}},
		// The same large instance under both names of the tile engine
		// ("blocked" is an alias of "blocked-pipe"), with a tile size
		// that forces several blocks — bitwise-identical digests.
		&wire.Request{ID: "big-blocked", Kind: wire.KindMatrixChain, Dims: big,
			Options: wire.Options{Engine: "blocked", TileSize: 16}},
		&wire.Request{ID: "big-pipe", Kind: wire.KindMatrixChain, Dims: big,
			Options: wire.Options{Engine: "blocked-pipe", TileSize: 16}},
	)
	return reqs
}

// directDigest solves the request in-process through the identical
// Solver configuration and returns the expected table digest and cost.
func directDigest(t *testing.T, req *wire.Request) (string, int64) {
	t.Helper()
	engine := req.Engine()
	if engine == "" {
		engine = sublineardp.EngineAuto
	}
	opts, err := req.SolverOptions()
	if err != nil {
		t.Fatal(err)
	}
	in, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	solver, err := sublineardp.NewSolver(engine, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return wire.TableDigest(sol.Table), int64(sol.Cost())
}

func TestE2EMixedTrafficBitwiseMatchesDirectSolve(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)

	reqs := mixedRequests()
	type expectation struct {
		digest string
		cost   int64
	}
	want := make(map[string]expectation, len(reqs))
	for _, r := range reqs {
		d, c := directDigest(t, r)
		want[r.ID] = expectation{digest: d, cost: c}
	}

	// Each worker fires the whole mix in its own shuffled order, so
	// every request ID is requested `workers` times concurrently —
	// plenty of duplicate keys in flight.
	const workers = 6
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 60 * time.Second}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(reqs))
			for _, idx := range order {
				req := reqs[idx]
				body, _ := json.Marshal(req)
				resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("worker %d req %s: %v", w, req.ID, err)
					return
				}
				var wr wire.Response
				derr := json.NewDecoder(resp.Body).Decode(&wr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					t.Errorf("worker %d req %s: status %d decode %v", w, req.ID, resp.StatusCode, derr)
					return
				}
				exp := want[req.ID]
				if wr.Cost != exp.cost {
					t.Errorf("req %s: served cost %d, direct solve %d", req.ID, wr.Cost, exp.cost)
				}
				if wr.TableDigest != exp.digest {
					t.Errorf("req %s: served table digest differs from direct Solver.Solve", req.ID)
				}
				if wr.Cached && wr.Coalesced {
					t.Errorf("req %s: response flagged both cached and coalesced", req.ID)
				}
			}
		}(w)
	}
	wg.Wait()

	m := srv.Metrics()
	total := int64(workers * len(reqs))
	if m.Requests != total || m.OK != total {
		t.Fatalf("requests %d ok %d, want %d each (errors on the side: %+v)", m.Requests, m.OK, total, m)
	}
	// Every 200 is exactly one of hit / coalesced / solved.
	if m.CacheHits+m.Coalesced+m.Solved != m.OK {
		t.Fatalf("counter identity broken: hits %d + coalesced %d + solved %d != ok %d",
			m.CacheHits, m.Coalesced, m.Solved, m.OK)
	}
	if m.ExactHits > m.CacheHits {
		t.Fatalf("exact hits %d exceed cache hits %d", m.ExactHits, m.CacheHits)
	}
	// Each distinct key solves at most once... per residency; eviction
	// cannot occur at this cache size, so solved == distinct keys.
	if distinct := int64(len(reqs)); m.Solved != distinct {
		t.Fatalf("solved %d, want exactly one solve per distinct key (%d)", m.Solved, distinct)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", m.QueueDepth)
	}
}

// TestE2ESingleFlightAndCacheHit is the acceptance criterion verbatim:
// >= 2 concurrent identical requests, exactly one underlying solve, then
// a cache hit served without touching the pool, all bitwise equal to a
// direct Solver.Solve.
func TestE2ESingleFlightAndCacheHit(t *testing.T) {
	eng := registerBlockEngine(t, "e2e-block")
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)

	req := &wire.Request{Kind: wire.KindMatrixChain,
		Dims:    []int{30, 35, 15, 5, 10, 20, 25},
		Options: wire.Options{Engine: eng.name}}
	body, _ := json.Marshal(req)

	const concurrent = 4
	responses := make(chan *wire.Response, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			var wr wire.Response
			if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			responses <- &wr
		}()
	}

	<-eng.entered // the one leader's solve is in the engine
	// Hold the flight open until every other request has joined it.
	deadline := time.Now().Add(10 * time.Second)
	for srv.group.Stats().Dedups < concurrent-1 {
		if time.Now().After(deadline) {
			t.Fatalf("joiners never folded: group stats %+v", srv.group.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(eng.release)
	wg.Wait()
	close(responses)

	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("%d underlying solves for %d concurrent identical requests, want exactly 1", got, concurrent)
	}
	var coalesced, solved int
	var digest string
	for wr := range responses {
		if wr.Coalesced {
			coalesced++
		} else {
			solved++
		}
		if digest == "" {
			digest = wr.TableDigest
		} else if wr.TableDigest != digest {
			t.Fatal("coalesced responses disagree on the table")
		}
	}
	if solved != 1 || coalesced != concurrent-1 {
		t.Fatalf("%d solved / %d coalesced, want 1 / %d", solved, coalesced, concurrent-1)
	}
	m := srv.Metrics()
	if m.Solved != 1 || m.Coalesced != concurrent-1 {
		t.Fatalf("metrics %+v, want 1 solved / %d coalesced", m, concurrent-1)
	}

	// One more identical request: a resident cache hit — no new engine
	// call, no new solve, i.e. the pool is never touched.
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var wr wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !wr.Cached {
		t.Fatal("follow-up identical request was not a cache hit")
	}
	if wr.TableDigest != digest {
		t.Fatal("cache hit serves a different table")
	}
	if eng.calls.Load() != 1 {
		t.Fatal("cache hit ran the engine")
	}
	m = srv.Metrics()
	if m.CacheHits != 1 || m.Solved != 1 {
		t.Fatalf("metrics after hit %+v, want 1 hit and still 1 solve", m)
	}

	// The served table is the direct Solver.Solve result, bitwise.
	direct, err := sublineardp.MustNewSolver(sublineardp.EngineSequential).
		Solve(context.Background(), problems.CLRSMatrixChain())
	if err != nil {
		t.Fatal(err)
	}
	if digest != wire.TableDigest(direct.Table) {
		t.Fatal("served digest differs from direct Solver.Solve")
	}
}

// TestE2EClientDisconnectCancelsSolve proves the cancellation chain:
// client TCP disconnect → request context → single-flight refcount
// (last waiter gone) → Solver.Solve → the engine's ctx. The engine here
// parks on ctx.Done exactly where a real kernel polls it per tile, so
// observing the signal is observing the tile-abort hook.
func TestE2EClientDisconnectCancelsSolve(t *testing.T) {
	eng := registerBlockEngine(t, "e2e-block-cancel")
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)

	req := &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{4, 5, 6, 7},
		Options: wire.Options{Engine: eng.name}}
	body, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(hreq)
		errc <- err
	}()

	<-eng.entered // solve is mid-flight inside the engine
	cancel()      // client disconnects

	select {
	case <-eng.cancelled:
		// Cancellation reached the engine's context through the whole stack.
	case <-time.After(10 * time.Second):
		t.Fatal("client disconnect never propagated to the engine context")
	}
	if err := <-errc; err == nil {
		t.Fatal("client call unexpectedly succeeded")
	}

	// The server heals: the same key solves fine for a patient client.
	go func() { <-eng.entered }()
	close(eng.release)
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect solve: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().ClientGone < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("client_gone counter never incremented: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE2ECancelledMissLeavesSiblingSolving pins per-request
// cancellation: with the server busy on one parked solve, two distinct
// misses under the same options enter the engine together, and
// disconnecting one of them cancels that solve alone — the other stays
// parked until released and then answers with the direct solve's table.
func TestE2ECancelledMissLeavesSiblingSolving(t *testing.T) {
	eng := registerBlockEngine(t, "e2e-block-sibling")
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)
	release := sync.OnceFunc(func() { close(eng.release) })
	defer release()

	post := func(ctx context.Context, req *wire.Request) (*wire.Response, error) {
		body, _ := json.Marshal(req)
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var wr wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return &wr, nil
	}
	type result struct {
		resp *wire.Response
		err  error
	}
	start := func(ctx context.Context, dims []int) (*wire.Request, chan result) {
		req := &wire.Request{Kind: wire.KindMatrixChain, Dims: dims,
			Options: wire.Options{Engine: eng.name}}
		done := make(chan result, 1)
		go func() {
			resp, err := post(ctx, req)
			done <- result{resp, err}
		}()
		return req, done
	}
	awaitEntered := func(what string) {
		t.Helper()
		select {
		case <-eng.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never reached the engine", what)
		}
	}

	_, doneA := start(context.Background(), []int{2, 3, 4, 5})
	awaitEntered("request A")
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	_, doneB := start(ctxB, []int{3, 4, 5, 6})
	reqC, doneC := start(context.Background(), []int{4, 5, 6, 7})
	awaitEntered("request B or C")
	awaitEntered("request B or C")

	cancelB()
	select {
	case <-eng.cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelling B never reached its engine context")
	}
	if r := <-doneB; r.err == nil {
		t.Fatal("cancelled request B got a response")
	}
	select {
	case <-eng.cancelled:
		t.Fatal("cancelling B cancelled a sibling solve too")
	case r := <-doneC:
		t.Fatalf("request C finished while its engine was parked: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	if r := <-doneA; r.err != nil {
		t.Fatalf("request A: %v", r.err)
	}
	r := <-doneC
	if r.err != nil {
		t.Fatalf("request C: %v", r.err)
	}
	if want, _ := directDigest(t, reqC); r.resp.TableDigest != want {
		t.Fatalf("request C digest %s, direct solve %s", r.resp.TableDigest, want)
	}
	if n := len(eng.cancelled); n != 0 {
		t.Fatalf("%d more engine solves cancelled, want only B's", n)
	}
}

// TestE2EOverloadCounterIdentity drives the server into overload and
// asserts the full counter balance: every request resolves as exactly
// one of admitted (ok/clientGone/timeout/solveError), shed (503 from a
// full admission queue) or rejected (400), so
// admitted + shed + rejected == requests — the identity /metrics
// monitoring depends on, now including the overload paths the happy-path
// suite above never exercises.
func TestE2EOverloadCounterIdentity(t *testing.T) {
	eng := registerBlockEngine(t, "e2e-block-overload")
	srv, err := New(Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)

	// The leader occupies the only admission slot, parked inside the
	// engine, so the server is saturated for the rest of the test.
	leadBody, _ := json.Marshal(&wire.Request{Kind: wire.KindMatrixChain,
		Dims: []int{4, 5, 6, 7}, Options: wire.Options{Engine: eng.name}})
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(leadBody))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("leader status %d", resp.StatusCode)
			}
		}
		leaderDone <- err
	}()
	<-eng.entered

	// Overload traffic: distinct well-formed instances must shed with
	// 503 while the queue is full — counted, not dropped.
	const overload = 20
	for i := 0; i < overload; i++ {
		body, _ := json.Marshal(&wire.Request{Kind: wire.KindMatrixChain,
			Dims: []int{2 + i, 3 + i, 4 + i}})
		resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("overload request %d: status %d, want 503", i, resp.StatusCode)
		}
	}

	// Invalid traffic: rejected with 400 before admission — also counted.
	badBodies := []string{
		"{nope",
		`{"kind":"matrixchain","dims":[2,3],"options":{"engine":"no-such-engine"}}`,
		`{"kind":"matrixchain"}`,
	}
	for i, body := range badBodies {
		resp, err := http.Post(base+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	close(eng.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m.RejectedFull != overload {
		t.Errorf("shed %d, want %d", m.RejectedFull, overload)
	}
	if m.BadRequests != int64(len(badBodies)) {
		t.Errorf("rejected %d, want %d", m.BadRequests, len(badBodies))
	}
	admitted := m.OK + m.ClientGone + m.Timeouts + m.SolveErrors
	if admitted+m.RejectedFull+m.BadRequests != m.Requests {
		t.Errorf("overload identity broken: admitted %d + shed %d + rejected %d != requests %d (%+v)",
			admitted, m.RejectedFull, m.BadRequests, m.Requests, m)
	}
	if m.CacheHits+m.Coalesced+m.Solved != m.OK {
		t.Errorf("200 identity broken under overload: hits %d + coalesced %d + solved %d != ok %d",
			m.CacheHits, m.Coalesced, m.Solved, m.OK)
	}
	if m.ExactHits > m.CacheHits {
		t.Errorf("exact hits %d exceed cache hits %d", m.ExactHits, m.CacheHits)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain", m.QueueDepth)
	}
}

// TestE2EAlgebraCacheSeparation is the algebra acceptance criterion
// verbatim: a max-plus and a bool-plan request round-trip through the
// serving stack and cache separately from their min-plus twins — the
// same parameters under different algebras yield distinct TableDigests,
// each cached under its own key, bitwise equal to direct Solver.Solve.
func TestE2EAlgebraCacheSeparation(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)
	client := &http.Client{Timeout: 60 * time.Second}

	dims := []int{30, 35, 15, 5, 10, 20, 25}
	reqs := []*wire.Request{
		{ID: "mc-min", Kind: wire.KindMatrixChain, Dims: dims},
		{ID: "mc-max", Kind: wire.KindMatrixChain, Dims: dims,
			Options: wire.Options{Semiring: "max-plus"}},
		{ID: "mc-bool", Kind: wire.KindMatrixChain, Dims: dims,
			Options: wire.Options{Semiring: "bool-plan"}},
		{ID: "worst", Kind: wire.KindWorstChain, Dims: dims},
		{ID: "split-ok", Kind: wire.KindBoolSplit, Count: 6,
			Forbidden: []wire.Span{{1, 3}}},
		{ID: "split-no", Kind: wire.KindBoolSplit, Count: 4,
			Forbidden: []wire.Span{{0, 2}, {1, 3}, {2, 4}}},
	}

	post := func(r *wire.Request) *wire.Response {
		t.Helper()
		body, _ := json.Marshal(r)
		resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		defer resp.Body.Close()
		var wr wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d decode %v", r.ID, resp.StatusCode, err)
		}
		return &wr
	}

	first := make(map[string]*wire.Response, len(reqs))
	for _, r := range reqs {
		wr := post(r)
		if wr.Cached || wr.Coalesced {
			t.Fatalf("%s: first request served from cache", r.ID)
		}
		// Bitwise agreement with a direct in-process solve of the same
		// wire request.
		wantDigest, wantCost := directDigest(t, r)
		if wr.TableDigest != wantDigest || wr.Cost != wantCost {
			t.Fatalf("%s: served (%d, %s) != direct solve (%d, %s)",
				r.ID, wr.Cost, wr.TableDigest, wantCost, wantDigest)
		}
		first[r.ID] = wr
	}

	// Algebra metadata on the responses.
	for id, alg := range map[string]string{
		"mc-min": "", "mc-max": "max-plus", "mc-bool": "bool-plan",
		"worst": "max-plus", "split-ok": "bool-plan", "split-no": "bool-plan",
	} {
		if first[id].Algebra != alg {
			t.Errorf("%s: algebra %q, want %q", id, first[id].Algebra, alg)
		}
	}

	// Identical parameters under different algebras are different
	// solutions: pairwise-distinct digests across the matrixchain twins.
	if first["mc-min"].TableDigest == first["mc-max"].TableDigest ||
		first["mc-min"].TableDigest == first["mc-bool"].TableDigest ||
		first["mc-max"].TableDigest == first["mc-bool"].TableDigest {
		t.Fatal("algebra twins share a table digest")
	}
	// The worstchain kind and the max-plus override compute the same
	// values (equal digests) from distinct cache entries.
	if first["worst"].TableDigest != first["mc-max"].TableDigest {
		t.Fatal("worstchain digest != matrixchain-under-max-plus digest")
	}
	// Bool-plan feasibility outcomes.
	if first["split-ok"].Cost != 1 {
		t.Fatalf("split-ok cost %d, want feasible 1", first["split-ok"].Cost)
	}
	if first["split-no"].Cost != 0 {
		t.Fatalf("split-no cost %d, want infeasible 0", first["split-no"].Cost)
	}

	// A second identical round must hit the cache — one resident entry
	// per (parameters, algebra) pair, never cross-served.
	for _, r := range reqs {
		wr := post(r)
		if !wr.Cached {
			t.Fatalf("%s: repeat not served from cache", r.ID)
		}
		if wr.TableDigest != first[r.ID].TableDigest || wr.Cost != first[r.ID].Cost {
			t.Fatalf("%s: cached digest drifted", r.ID)
		}
	}

	m := srv.Metrics()
	if m.Solved != int64(len(reqs)) {
		t.Fatalf("solved %d, want one per distinct (parameters, algebra) key (%d)", m.Solved, len(reqs))
	}
	if m.CacheHits != int64(len(reqs)) {
		t.Fatalf("cache hits %d, want %d", m.CacheHits, len(reqs))
	}
}

// directChainDigest solves a chain request in-process through the
// identical ChainSolver configuration and returns the expected vector
// digest and cost.
func directChainDigest(t *testing.T, req *wire.Request) (string, int64) {
	t.Helper()
	engine := req.Engine()
	if engine == "" {
		engine = sublineardp.ChainEngineAuto
	}
	opts, err := req.SolverOptions()
	if err != nil {
		t.Fatal(err)
	}
	c, err := req.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	solver, err := sublineardp.NewChainSolver(engine, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Solve(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return wire.VectorDigest(sol.Values), int64(sol.Cost())
}

// TestE2EChainRoundTrip is the chain-kind acceptance criterion: segls /
// wis / subsetsum requests round-trip through the full serving stack
// bitwise identical to direct ChainSolver.Solve calls, chain and
// interval requests occupy separate cache entries, and the counter
// identity balances.
func TestE2EChainRoundTrip(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)
	client := &http.Client{Timeout: 60 * time.Second}

	xs, ys := problems.RandomSeries(60, 11)
	pts := make([]wire.Point, len(xs))
	for i := range xs {
		pts[i] = wire.Point{X: xs[i], Y: ys[i]}
	}
	starts, ends, weights := problems.RandomJobs(40, 12)
	reqs := []*wire.Request{
		{ID: "segls-auto", Kind: wire.KindSegLS, Points: pts, Penalty: 900, WantTree: true},
		{ID: "segls-llp", Kind: wire.KindSegLS, Points: pts, Penalty: 900,
			Options: wire.Options{Engine: "llp", Workers: 3}},
		{ID: "wis", Kind: wire.KindWIS, Starts: starts, Ends: ends, Weights: weights},
		{ID: "subsetsum", Kind: wire.KindSubsetSum, Target: 97, Items: []int64{6, 11, 19},
			Options: wire.Options{Engine: "sequential"}},
	}

	post := func(r *wire.Request) *wire.Response {
		t.Helper()
		body, _ := json.Marshal(r)
		resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		defer resp.Body.Close()
		var wr wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d decode %v", r.ID, resp.StatusCode, err)
		}
		return &wr
	}

	first := make(map[string]*wire.Response, len(reqs))
	for _, r := range reqs {
		wr := post(r)
		if wr.Cached || wr.Coalesced {
			t.Fatalf("%s: first request served from cache", r.ID)
		}
		wantDigest, wantCost := directChainDigest(t, r)
		if wr.TableDigest != wantDigest || wr.Cost != wantCost {
			t.Fatalf("%s: served (%d, %s) != direct chain solve (%d, %s)",
				r.ID, wr.Cost, wr.TableDigest, wantCost, wantDigest)
		}
		first[r.ID] = wr
	}

	// Engine routing and algebra metadata on the responses.
	if got := first["segls-llp"].Engine; got != "llp" {
		t.Errorf("segls-llp ran on %q, want llp", got)
	}
	if got := first["subsetsum"].Engine; got != "sequential" {
		t.Errorf("subsetsum ran on %q, want sequential", got)
	}
	for id, alg := range map[string]string{
		"segls-auto": "", "segls-llp": "", "wis": "max-plus", "subsetsum": "bool-plan",
	} {
		if first[id].Algebra != alg {
			t.Errorf("%s: algebra %q, want %q", id, first[id].Algebra, alg)
		}
	}
	// The two segls requests differ only in engine: identical values
	// (bitwise — the LLP acceptance criterion over the wire), distinct
	// cache entries.
	if first["segls-auto"].TableDigest != first["segls-llp"].TableDigest {
		t.Fatal("llp vector digest differs from the auto-routed solve")
	}
	// The optimal breakpoint path came back and spans the series.
	if tree := first["segls-auto"].Tree; tree == "" ||
		!strings.HasPrefix(tree, "0 ") || !strings.HasSuffix(tree, fmt.Sprintf(" %d", len(pts))) {
		t.Fatalf("segls breakpoints %q do not span 0..%d", tree, len(pts))
	}

	// Repeats are cache hits, served bitwise-identically.
	for _, r := range reqs {
		wr := post(r)
		if !wr.Cached {
			t.Fatalf("%s: repeat not served from cache", r.ID)
		}
		if wr.TableDigest != first[r.ID].TableDigest || wr.Cost != first[r.ID].Cost {
			t.Fatalf("%s: cached digest drifted", r.ID)
		}
	}

	// Interval traffic lands in the separate interval store: a
	// matrixchain request after the chain rounds is a fresh solve, and
	// chain entries stay resident.
	mc := &wire.Request{ID: "mc", Kind: wire.KindMatrixChain, Dims: []int{30, 35, 15, 5, 10, 20, 25}}
	if wr := post(mc); wr.Cached || wr.Coalesced {
		t.Fatal("interval request served from the chain rounds' cache")
	}
	if wr := post(reqs[0]); !wr.Cached {
		t.Fatal("chain entry evicted by interval traffic")
	}

	m := srv.Metrics()
	if m.CacheHits+m.Coalesced+m.Solved != m.OK {
		t.Fatalf("counter identity broken: hits %d + coalesced %d + solved %d != ok %d",
			m.CacheHits, m.Coalesced, m.Solved, m.OK)
	}
	if m.ExactHits > m.CacheHits {
		t.Fatalf("exact hits %d exceed cache hits %d", m.ExactHits, m.CacheHits)
	}
	// One solve per distinct (kind, parameters, options) key: 4 chain
	// keys + 1 interval key.
	if m.Solved != int64(len(reqs))+1 {
		t.Fatalf("solved %d, want %d", m.Solved, len(reqs)+1)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", m.QueueDepth)
	}
}

// TestE2EReconstructionRoundTrip pins the return_splits surface end to
// end: served trees and paths match direct solves digest-for-digest,
// cache hits keep answering with the reconstruction (the cached
// Solution carries its recorded splits, so every hit re-derives the
// tree in O(n)), and return_splits participates in the cache key — a
// plain twin of a splits-recording request is a separate entry.
func TestE2EReconstructionRoundTrip(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)
	client := &http.Client{Timeout: 60 * time.Second}

	post := func(r *wire.Request) *wire.Response {
		t.Helper()
		body, _ := json.Marshal(r)
		resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		defer resp.Body.Close()
		var wr wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d decode %v", r.ID, resp.StatusCode, err)
		}
		return &wr
	}

	// A matrix chain big enough for blocked-sized work, solved with
	// recorded splits.
	rng := rand.New(rand.NewSource(21))
	dims := make([]int, 81)
	for i := range dims {
		dims[i] = 1 + rng.Intn(60)
	}
	treq := &wire.Request{ID: "mc-tree", Kind: wire.KindMatrixChain, Dims: dims,
		Options: wire.Options{Engine: "blocked"}, ReturnSplits: true}

	in, err := treq.Instance()
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Solve(in).Tree()

	first := post(treq)
	if first.Cached || first.Coalesced {
		t.Fatal("first request served from cache")
	}
	if first.Reconstruction == nil || first.Reconstruction.Error != "" {
		t.Fatalf("no reconstruction served: %+v", first.Reconstruction)
	}
	if first.Reconstruction.Tree != want.Encode() {
		t.Fatal("served tree differs from direct sequential solve")
	}
	if first.Reconstruction.Digest != wire.TreeDigest(want) {
		t.Fatalf("served tree digest %q, want %q", first.Reconstruction.Digest, wire.TreeDigest(want))
	}

	// The cache hit still reconstructs — from the cached solution's
	// recorded splits, byte-identically.
	hit := post(treq)
	if !hit.Cached {
		t.Fatal("repeat not served from cache")
	}
	if hit.Reconstruction == nil || hit.Reconstruction.Tree != first.Reconstruction.Tree ||
		hit.Reconstruction.Digest != first.Reconstruction.Digest {
		t.Fatalf("cached reconstruction drifted: %+v", hit.Reconstruction)
	}

	// The same instance without return_splits is a different cache
	// entry (recording is keyed), and answers without the section.
	plain := &wire.Request{ID: "mc-plain", Kind: wire.KindMatrixChain, Dims: dims,
		Options: wire.Options{Engine: "blocked"}}
	pw := post(plain)
	if pw.Cached || pw.Coalesced {
		t.Fatal("plain twin shared the splits-recording cache entry")
	}
	if pw.Reconstruction != nil {
		t.Fatalf("plain request grew a reconstruction: %+v", pw.Reconstruction)
	}
	if pw.TableDigest != first.TableDigest {
		t.Fatal("recording changed the value table digest")
	}

	// Chain kind: the breakpoint path round-trips with its digest.
	xs, ys := problems.RandomSeries(50, 31)
	pts := make([]wire.Point, len(xs))
	for i := range xs {
		pts[i] = wire.Point{X: xs[i], Y: ys[i]}
	}
	creq := &wire.Request{ID: "segls-path", Kind: wire.KindSegLS, Points: pts,
		Penalty: 900, ReturnSplits: true}
	cfirst := post(creq)
	if cfirst.Reconstruction == nil || cfirst.Reconstruction.Error != "" {
		t.Fatalf("no chain reconstruction served: %+v", cfirst.Reconstruction)
	}
	cc, err := creq.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	csol, err := sublineardp.MustNewChainSolver("").Solve(context.Background(), cc)
	if err != nil {
		t.Fatal(err)
	}
	wantPath, err := csol.Path()
	if err != nil {
		t.Fatal(err)
	}
	if cfirst.Reconstruction.Digest != wire.PathDigest(wantPath) {
		t.Fatalf("served path digest %q, want %q", cfirst.Reconstruction.Digest, wire.PathDigest(wantPath))
	}
	if chit := post(creq); !chit.Cached || chit.Reconstruction == nil ||
		chit.Reconstruction.Digest != cfirst.Reconstruction.Digest {
		t.Fatal("cached chain reconstruction drifted")
	}

	// chain_window is part of the problem statement: the windowed twin
	// never shares a cache entry with the full-prefix solve.
	starts, ends, weights := problems.RandomJobs(40, 12)
	full := &wire.Request{ID: "wis-full", Kind: wire.KindWIS,
		Starts: starts, Ends: ends, Weights: weights}
	windowed := &wire.Request{ID: "wis-win", Kind: wire.KindWIS,
		Starts: starts, Ends: ends, Weights: weights, ChainWindow: 5}
	if fw := post(full); fw.Cached || fw.Coalesced {
		t.Fatal("first full-prefix request served from cache")
	}
	ww := post(windowed)
	if ww.Cached || ww.Coalesced {
		t.Fatal("windowed request served from the full-prefix cache entry")
	}
	wc, err := windowed.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	wsol, err := sublineardp.MustNewChainSolver("").Solve(context.Background(), wc)
	if err != nil {
		t.Fatal(err)
	}
	if ww.Cost != int64(wsol.Cost()) || ww.TableDigest != wire.VectorDigest(wsol.Values) {
		t.Fatalf("windowed solve (%d, %s) != direct (%d, %s)",
			ww.Cost, ww.TableDigest, wsol.Cost(), wire.VectorDigest(wsol.Values))
	}

	m := srv.Metrics()
	if m.CacheHits+m.Coalesced+m.Solved != m.OK {
		t.Fatalf("counter identity broken: hits %d + coalesced %d + solved %d != ok %d",
			m.CacheHits, m.Coalesced, m.Solved, m.OK)
	}
	if m.ExactHits > m.CacheHits {
		t.Fatalf("exact hits %d exceed cache hits %d", m.ExactHits, m.CacheHits)
	}
}

// TestE2EChainBadRequests pins the chain-kind 400 surface: malformed
// parameters and unknown chain engines shed before admission.
func TestE2EChainBadRequests(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := startLoopback(t, srv)
	client := &http.Client{Timeout: 10 * time.Second}

	bad := []*wire.Request{
		{Kind: wire.KindSegLS, Penalty: 10},
		{Kind: wire.KindSegLS, Points: []wire.Point{{X: 1}, {X: 1}}},
		{Kind: wire.KindWIS, Starts: []int64{4}, Ends: []int64{2}, Weights: []int64{1}},
		{Kind: wire.KindSubsetSum, Target: 5},
		{Kind: wire.KindSubsetSum, Target: 5, Items: []int64{3},
			Options: wire.Options{Engine: "hlv-banded"}}, // interval-only engine
	}
	for i, r := range bad {
		body, _ := json.Marshal(r)
		resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if m := srv.Metrics(); m.BadRequests != int64(len(bad)) {
		t.Fatalf("bad requests %d, want %d", m.BadRequests, len(bad))
	}
}
