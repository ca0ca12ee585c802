// Package serve is the HTTP serving layer over the Solver API — the
// front end cmd/dpserved mounts. One Server owns three cooperating
// mechanisms, each sized by a Config knob whose mapping onto the paper's
// processor-count model is documented in DESIGN.md:
//
//   - admission control: a bounded in-flight budget (QueueDepth). A
//     request either takes a slot immediately or is shed with 503, so
//     overload degrades by rejecting early instead of queueing without
//     bound; admitted requests run under a server deadline
//     (RequestTimeout) joined with the client's own disconnect.
//   - a canonical-instance cache with single-flight dedup: requests are
//     content-addressed by the instance's canonical encoding plus the
//     solving options and rendering bits, so a resident rendered
//     response answers without touching the pool and identical in-flight
//     requests fold into one solve.
//   - a coalescing batcher: cache-missing flights are folded into
//     SolveBatch calls on one shared pool, dispatched at least a
//     BatchWindow apart — arrival concurrency becomes batch-level
//     parallelism instead of goroutine oversubscription, and a miss on
//     a quiet server dispatches at once instead of waiting a window.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/cache"
	"sublineardp/internal/wire"
)

// Config sizes the serving layer. The zero value serves with the
// defaults noted per field.
type Config struct {
	// Engine is the registry engine used when a request names none
	// (default "auto").
	Engine string
	// MaxN rejects instances larger than this with 400 (default 4096;
	// negative = unbounded). It bounds per-request memory: the engines
	// the server routes to by default hold O(n^2) tables, and an
	// explicitly named banded solve's working set grows as O(n^2.5).
	MaxN int
	// MaxNHeavy is the stricter size bound for the O(n^4)-memory
	// engines a request may name explicitly — hlv-dense and rytter
	// (default 64; negative = unbounded). Without it one
	// request for hlv-dense at n=256 would try to allocate ~70 GB.
	MaxNHeavy int
	// MaxWorkers caps the per-request workers option (default 256;
	// negative = unbounded). Workers beyond the pool width spawn
	// transient goroutines, so an unbounded client value is a
	// goroutine-exhaustion vector.
	MaxWorkers int
	// QueueDepth is the admission budget: how many requests may be past
	// admission at once (default 256). The full queue sheds with 503.
	QueueDepth int
	// BatchWindow is the least time between two batch dispatches
	// (default 2ms), and so the most a task waits in the batcher: a task
	// reaching a quiet server, one window or more after the previous
	// dispatch, goes out at once; under load, tasks collect until one
	// window after the previous dispatch.
	BatchWindow time.Duration
	// MaxBatch caps instances per SolveBatch dispatch (default 32).
	MaxBatch int
	// Concurrency bounds how many instances one SolveBatch dispatch
	// solves at once (default GOMAXPROCS, see SolveBatch).
	Concurrency int
	// CacheCapacity is the response LRU size in entries (default 4096;
	// negative disables caching and single-flight entirely). Entries are
	// rendered responses, O(n) bytes each, so residency is bounded by
	// about CacheCapacity × O(MaxN) bytes per store.
	CacheCapacity int
	// RequestTimeout is the server-side deadline per admitted request
	// (default 30s; negative = none).
	RequestTimeout time.Duration
	// Pool is the worker pool every batch dispatches onto (nil = the
	// process-wide shared pool).
	Pool *sublineardp.Pool
}

func (c Config) withDefaults() Config {
	if c.Engine == "" {
		c.Engine = sublineardp.EngineAuto
	}
	if c.MaxN == 0 {
		c.MaxN = 4096
	}
	if c.MaxNHeavy == 0 {
		c.MaxNHeavy = 64
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is the serving layer. Build with New, mount Handler, Close when
// done.
type Server struct {
	cfg Config
	met *metrics

	// The stores hold rendered responses, not solutions: an entry is the
	// O(n) body a client receives (cost, digest, tree or path), never
	// the O(n^2) table behind it, so only in-flight solves hold solver
	// state. Entries are immutable once stored; every request answers
	// from a private shallow copy carrying its own per-request fields.
	lru   *cache.Sharded[*wire.Response] // nil when caching disabled
	group cache.Group[*wire.Response]

	// Chain requests (wire.IsChainKind) cache and single-flight in their
	// own store, so the two recurrence classes can never collide on an
	// entry and each gets the full configured capacity.
	clru   *cache.Sharded[*wire.Response] // nil when caching disabled
	cgroup cache.Group[*wire.Response]

	slots   chan struct{} // admission tokens; buffered to QueueDepth
	batchCh chan *task

	done    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

type task struct {
	in     *sublineardp.Instance // interval instance; nil for chain tasks
	chain  *sublineardp.Chain    // chain instance; nil for interval tasks
	engine string
	opts   []sublineardp.Option
	sig    string // options signature: tasks with equal sig share a SolveBatch
	ctx    context.Context
	res    chan taskResult
}

type taskResult struct {
	sol  *sublineardp.Solution
	csol *sublineardp.ChainSolution
	err  error
}

// New validates the configuration and starts the batcher.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, ok := sublineardp.LookupEngine(cfg.Engine); !ok {
		return nil, fmt.Errorf("serve: unknown default engine %q (registered: %v)",
			cfg.Engine, sublineardp.Engines())
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.QueueDepth),
		batchCh: make(chan *task),
		done:    make(chan struct{}),
	}
	if cfg.CacheCapacity > 0 {
		s.lru = cache.New[*wire.Response](cfg.CacheCapacity, 16)
		s.clru = cache.New[*wire.Response](cfg.CacheCapacity, 16)
	}
	entries := func() int { return 0 }
	if s.lru != nil {
		entries = func() int { return s.lru.Len() + s.clru.Len() }
	}
	s.met = newMetrics(entries)
	s.wg.Add(1)
	go s.batcher()
	return s, nil
}

// Close stops accepting new work and waits for the batcher to drain.
func (s *Server) Close() {
	if s.closing.CompareAndSwap(false, true) {
		close(s.done)
	}
	s.wg.Wait()
}

// Metrics returns the counter surface (for tests and embedding).
func (s *Server) Metrics() MetricsSnapshot { return s.snapshot() }

// MetricsSnapshot is a point-in-time copy of the serving counters.
type MetricsSnapshot struct {
	Requests, OK                          int64
	ClientGone, RejectedFull, BadRequests int64
	Timeouts, SolveErrors                 int64
	CacheHits, Coalesced, Solved          int64
	Batches, BatchInstances               int64
	QueueDepth                            int64
}

func (s *Server) snapshot() MetricsSnapshot {
	m := s.met
	return MetricsSnapshot{
		Requests: m.requests.Load(), OK: m.ok.Load(),
		ClientGone: m.clientGone.Load(), RejectedFull: m.rejectedFull.Load(),
		BadRequests: m.badRequests.Load(), Timeouts: m.timeouts.Load(),
		SolveErrors: m.solveErrors.Load(), CacheHits: m.cacheHits.Load(),
		Coalesced: m.coalesced.Load(), Solved: m.solved.Load(),
		Batches: m.batches.Load(), BatchInstances: m.batchSolves.Load(),
		QueueDepth: m.queueDepth.Load(),
	}
}

// Handler returns the HTTP surface: POST /solve, GET /healthz,
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.write(w)
	})
	return mux
}

const maxBodyBytes = 8 << 20

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.requests.Add(1)

	var req wire.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	if err := req.Validate(s.cfg.MaxN); err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	isChain := wire.IsChainKind(req.Kind)
	engine := req.Engine()
	if isChain {
		// Chain kinds route through the chain engine registry; the
		// configured interval default does not apply to them.
		if engine == "" {
			engine = sublineardp.ChainEngineAuto
		}
		if _, ok := sublineardp.LookupChainEngine(engine); !ok {
			s.met.badRequests.Add(1)
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown chain engine %q (registered: %v)", engine, sublineardp.ChainEngines()))
			return
		}
	} else {
		if engine == "" {
			engine = s.cfg.Engine
		}
		if _, ok := sublineardp.LookupEngine(engine); !ok {
			s.met.badRequests.Add(1)
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown engine %q (registered: %v)", engine, sublineardp.Engines()))
			return
		}
	}
	// Engine-aware resource policy: the O(n^4)-memory engines get a
	// stricter size bound, and the workers option is capped — both are
	// single-request denial-of-service vectors otherwise. Chain engines
	// are O(n) memory, so MaxNHeavy never applies to them.
	if !isChain && heavyMemoryEngines[engine] && s.cfg.MaxNHeavy > 0 && req.N() > s.cfg.MaxNHeavy {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("engine %q is O(n^4) memory: instance size n=%d exceeds the server limit n=%d for it",
				engine, req.N(), s.cfg.MaxNHeavy))
		return
	}
	if s.cfg.MaxWorkers > 0 && req.Options.Workers > s.cfg.MaxWorkers {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("workers=%d exceeds the server limit %d", req.Options.Workers, s.cfg.MaxWorkers))
		return
	}
	opts, err := req.SolverOptions()
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var in *sublineardp.Instance
	var chain *sublineardp.Chain
	if isChain {
		chain, err = req.ChainInstance()
	} else {
		in, err = req.Instance()
	}
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Admission: take an in-flight slot or shed immediately.
	select {
	case s.slots <- struct{}{}:
		s.met.queueDepth.Add(1)
		defer func() {
			<-s.slots
			s.met.queueDepth.Add(-1)
		}()
	default:
		s.met.rejectedFull.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("admission queue full (%d in flight)", s.cfg.QueueDepth))
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	var shared *wire.Response
	var route via
	if isChain {
		shared, route, err = s.solveChain(ctx, chain, engine, &req, opts)
	} else {
		shared, route, err = s.solve(ctx, in, engine, &req, opts)
	}
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// The client is gone; nothing useful can be written.
			s.met.clientGone.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, context.Canceled):
			s.met.clientGone.Add(1)
		default:
			s.met.solveErrors.Add(1)
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	// The rendered response may be resident in the cache or shared by a
	// flight's waiters: answer from a private copy and set only the
	// per-request fields on it.
	resp := *shared
	resp.ID = req.ID
	resp.Cached = route == viaCacheHit
	resp.Coalesced = route == viaCoalesced
	resp.ElapsedMicros = time.Since(start).Microseconds()
	// Marshal before counting: a request must resolve as exactly one of
	// ok / clientGone / shed / rejected / timeout / solveError for the
	// /metrics identity to balance, so the ok and hit/coalesced/solved
	// counters only move once the response bytes are actually written.
	blob, err := json.Marshal(&resp)
	if err != nil {
		s.met.solveErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(blob, '\n')); err != nil {
		s.met.clientGone.Add(1)
		return
	}
	s.met.ok.Add(1)
	s.met.observeLatency(time.Since(start).Seconds())
	switch route {
	case viaCacheHit:
		s.met.cacheHits.Add(1)
	case viaCoalesced:
		s.met.coalesced.Add(1)
	default:
		s.met.solved.Add(1)
	}
}

type via int

const (
	viaSolved via = iota
	viaCacheHit
	viaCoalesced
)

// heavyMemoryEngines names the built-ins whose working set grows as
// O(n^4) — the ones Config.MaxNHeavy bounds. The auto engine never
// routes to any of them. The blocked engine is deliberately exempt:
// its O(n^2) table is the same memory class MaxN already bounds, so
// explicit "blocked" requests serve the full n <= MaxN range — that is
// the engine large instances are meant to name
// (TestResourcePolicyRejections pins the exemption).
var heavyMemoryEngines = map[string]bool{
	sublineardp.EngineHLVDense: true,
	sublineardp.EngineRytter:   true,
}

// solveKey content-addresses one request: the instance's canonical bytes
// plus the option signature and the request's rendering bits. Every
// wire-buildable instance is canonicalisable, so the bool is only false
// for exotic custom kinds.
func solveKey(in *sublineardp.Instance, sig string, req *wire.Request) (cache.Key, bool) {
	canon, ok := in.Canonical()
	if !ok {
		return cache.Key{}, false
	}
	return renderBits(cache.NewHasher().Bytes("instance", canon).String("opts", sig), req).Sum(), true
}

// renderBits keys the request fields that change the rendered body:
// entries hold responses, so a want_tree request and its plain twin
// solve alike but must never answer for each other, and neither must a
// chain return_splits request and its plain twin. (An interval
// return_splits also changes the solve, so the signature already
// carries it.) The batching signature leaves these bits out, so
// requests differing only in them still share a SolveBatch.
func renderBits(h *cache.Hasher, req *wire.Request) *cache.Hasher {
	return h.Bool("want_tree", req.WantTree).Bool("return_splits", req.ReturnSplits)
}

// optionsSig renders the solving configuration of a request into the
// string that both content-addresses it (with the instance) and groups
// batcher tasks: tasks with equal signatures are safe to fold into one
// SolveBatch call. splits keys split recording: a split-recording
// solve carries reconstruction state a non-recording one does not, so
// the two never share a cache entry or a batch group (chain requests
// always pass false — reconstruction there reads the value vector and
// does not change the solve).
//
// Options are keyed by meaning, not spelling: an empty mode is "sync",
// an empty termination "fixed", and the semiring is the one the solve
// runs under — the override, else the instance's declared algebra
// (declared), else min-plus.
//
// Every wire.Options field must be read here or carry a keycoverage
// exemption on its declaration; dplint enforces it.
func optionsSig(engine string, o wire.Options, declared string, splits bool) string {
	var b strings.Builder
	b.Grow(64)
	// The names go in with WriteString: boxed into Fprintf's arguments,
	// each resolved name would cost a heap allocation on every cache hit.
	for _, s := range [...]string{engine, cmp.Or(o.Mode, "sync"), cmp.Or(o.Termination, "fixed"),
		algebra.ResolveName(nil, cmp.Or(o.Semiring, declared))} {
		b.WriteString(s)
		b.WriteByte('|')
	}
	fmt.Fprintf(&b, "%d|%d|%v|%d|%d|%d|%v", o.MaxIterations,
		o.BandRadius, o.Window, o.TileSize, o.Workers, o.AutoCutoff,
		splits)
	return b.String()
}

// explicitSemiring names in the options the algebra a request without
// an override solves under: its instance's declared one. optionsSig keys
// that algebra, so such a request shares its signature with one naming
// it, and a batch group solves under its lead's options — which must
// then put every task of the group on that algebra.
func explicitSemiring(opts []sublineardp.Option, o wire.Options, declared string) []sublineardp.Option {
	if o.Semiring != "" {
		return opts
	}
	if sr, ok := sublineardp.LookupSemiring(algebra.ResolveName(nil, declared)); ok {
		opts = append(opts, sublineardp.WithSemiring(sr))
	}
	return opts
}

// solve runs the cache → single-flight → batcher protocol for one
// admitted interval request and returns its rendered response.
func (s *Server) solve(ctx context.Context, in *sublineardp.Instance, engine string, req *wire.Request, opts []sublineardp.Option) (*wire.Response, via, error) {
	sig := optionsSig(engine, req.Options, in.Algebra, req.ReturnSplits)
	key, keyed := solveKey(in, sig, req)
	render := func(fctx context.Context) (*wire.Response, error) {
		opts := explicitSemiring(opts, req.Options, in.Algebra)
		r, err := s.submit(fctx, &task{in: in, engine: engine, opts: opts, sig: sig, ctx: fctx})
		if err != nil {
			return nil, err
		}
		return wire.NewResponse(req, r.sol), nil
	}
	return fromCache(ctx, s.lru, &s.group, key, keyed, render)
}

// chainSolveKey is solveKey for chain requests. The "chain|" signature
// prefix (set by the caller) plus the chain's own canonical domain tags
// keep chain entries disjoint from interval ones.
func chainSolveKey(c *sublineardp.Chain, sig string, req *wire.Request) (cache.Key, bool) {
	canon, ok := c.Canonical()
	if !ok {
		return cache.Key{}, false
	}
	return renderBits(cache.NewHasher().Bytes("chain", canon).String("opts", sig), req).Sum(), true
}

// solveChain runs the cache → single-flight → batcher protocol for one
// admitted chain request, against the chain store.
func (s *Server) solveChain(ctx context.Context, c *sublineardp.Chain, engine string, req *wire.Request, opts []sublineardp.Option) (*wire.Response, via, error) {
	// The signature prefix keeps chain tasks out of interval SolveBatch
	// groups: runGroup dispatches a group by its head task's class.
	sig := "chain|" + optionsSig(engine, req.Options, c.Algebra, false)
	key, keyed := chainSolveKey(c, sig, req)
	render := func(fctx context.Context) (*wire.Response, error) {
		opts := explicitSemiring(opts, req.Options, c.Algebra)
		r, err := s.submit(fctx, &task{chain: c, engine: engine, opts: opts, sig: sig, ctx: fctx})
		if err != nil {
			return nil, err
		}
		return wire.NewChainResponse(req, r.csol), nil
	}
	return fromCache(ctx, s.clru, &s.cgroup, key, keyed, render)
}

// fromCache answers a keyed request from the store, else from a
// single-flight whose leader solves and renders once: the digest and
// reconstruction are computed once per solve, never per hit or per
// coalesced waiter, and the solution itself is garbage as soon as it is
// rendered. The returned response is shared — callers copy it before
// setting per-request fields.
func fromCache(ctx context.Context, lru *cache.Sharded[*wire.Response], group *cache.Group[*wire.Response],
	key cache.Key, keyed bool, render func(context.Context) (*wire.Response, error)) (*wire.Response, via, error) {
	if lru == nil || !keyed {
		resp, err := render(ctx)
		return resp, viaSolved, err
	}
	if resp, ok := lru.Get(key); ok {
		return resp, viaCacheHit, nil
	}
	resp, joined, err := group.Do(ctx, key, func(fctx context.Context) (*wire.Response, error) {
		resp, err := render(fctx)
		if err != nil {
			return nil, err
		}
		lru.Add(key, resp)
		return resp, nil
	})
	switch {
	case err != nil:
		return nil, viaSolved, err
	case joined:
		return resp, viaCoalesced, nil
	}
	return resp, viaSolved, nil
}

// submit hands a task to the batcher and waits for its result.
func (s *Server) submit(ctx context.Context, t *task) (taskResult, error) {
	t.res = make(chan taskResult, 1)
	select {
	case s.batchCh <- t:
	case <-ctx.Done():
		return taskResult{}, ctx.Err()
	case <-s.done:
		return taskResult{}, errors.New("server shutting down")
	}
	select {
	case r := <-t.res:
		return r, r.err
	case <-ctx.Done():
		return taskResult{}, ctx.Err()
	}
}

// batcher folds tasks into batches with dispatches at least one
// BatchWindow apart. On a quiet server (the previous dispatch is a window
// or more in the past) a task dispatches at once, taking along whatever
// is already queued; otherwise the batch collects until a window after
// the previous dispatch or until it is full. A burst therefore still
// folds into few SolveBatch calls, while no task waits longer than one
// window. Batches dispatch asynchronously so the next one can fill while
// this one solves.
func (s *Server) batcher() {
	defer s.wg.Done()
	var last time.Time // when the previous batch dispatched
	for {
		var first *task
		select {
		case first = <-s.batchCh:
		case <-s.done:
			return
		}
		batch := []*task{first}
		if wait := time.Until(last.Add(s.cfg.BatchWindow)); wait > 0 {
			timer := time.NewTimer(wait)
		collect:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case t := <-s.batchCh:
					batch = append(batch, t)
				case <-timer.C:
					break collect
				case <-s.done:
					break collect
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case t := <-s.batchCh:
					batch = append(batch, t)
				default:
					break drain
				}
			}
		}
		last = time.Now()
		s.wg.Add(1)
		go func(batch []*task) {
			defer s.wg.Done()
			s.runBatch(batch)
		}(batch)
	}
}

// runBatch partitions a window by options signature and dispatches one
// SolveBatch per group on the shared pool. The batch context is
// refcounted over the member tasks' contexts: it cancels only when every
// member has been abandoned, which is how a client disconnect propagates
// down to tile-level kernel abort without killing co-batched strangers.
func (s *Server) runBatch(batch []*task) {
	groups := make(map[string][]*task)
	for _, t := range batch {
		groups[t.sig] = append(groups[t.sig], t)
	}
	// Dispatch groups concurrently: signatures are independent solves,
	// and serialising them would head-of-line block a window's small
	// requests behind an unrelated large batch.
	var gwg sync.WaitGroup
	for _, group := range groups {
		gwg.Add(1)
		go func(group []*task) {
			defer gwg.Done()
			s.runGroup(group)
		}(group)
	}
	gwg.Wait()
}

// runGroup dispatches one options-signature group as a SolveBatch (or,
// for chain groups, SolveChainBatch) call. The "chain|" signature prefix
// guarantees a group is homogeneous — its head task's class is the whole
// group's class.
func (s *Server) runGroup(group []*task) {
	bctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(group))
	var pending atomic.Int64
	pending.Store(remaining)
	for _, t := range group {
		go func(done <-chan struct{}) {
			<-done
			if pending.Add(-1) == 0 {
				cancel()
			}
		}(t.ctx.Done())
	}

	lead := group[0]
	opts := append(append([]sublineardp.Option(nil), lead.opts...),
		sublineardp.WithEngine(lead.engine),
		sublineardp.WithPool(s.cfg.Pool),
		sublineardp.WithConcurrency(s.cfg.Concurrency),
	)
	s.met.batches.Add(1)
	s.met.batchSolves.Add(int64(len(group)))

	fail := func(t *task, err error) error {
		terr := t.ctx.Err()
		if terr == nil {
			terr = bctx.Err()
		}
		if terr == nil {
			if err != nil {
				terr = err
			} else {
				terr = errors.New("solve produced no solution")
			}
		}
		return terr
	}

	if lead.chain != nil {
		chains := make([]*sublineardp.Chain, len(group))
		for i, t := range group {
			chains[i] = t.chain
		}
		csols, err := sublineardp.SolveChainBatch(bctx, chains, opts...)
		if csols == nil {
			csols = make([]*sublineardp.ChainSolution, len(group))
		}
		for i, t := range group {
			if csols[i] != nil {
				t.res <- taskResult{csol: csols[i]}
				continue
			}
			t.res <- taskResult{err: fail(t, err)}
		}
		cancel()
		return
	}

	instances := make([]*sublineardp.Instance, len(group))
	for i, t := range group {
		instances[i] = t.in
	}
	sols, err := sublineardp.SolveBatch(bctx, instances, opts...)
	if sols == nil {
		sols = make([]*sublineardp.Solution, len(group))
	}
	for i, t := range group {
		if sols[i] != nil {
			t.res <- taskResult{sol: sols[i]}
			continue
		}
		t.res <- taskResult{err: fail(t, err)}
	}
	cancel() // the watcher normally fires it; this makes vet-visible cleanup unconditional
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wire.ErrorBody{Error: err.Error(), Code: code})
}
