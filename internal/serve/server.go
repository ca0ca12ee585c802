// Package serve is the HTTP serving layer over the Solver API — the
// front end cmd/dpserved mounts. One Server owns two cooperating
// mechanisms, each sized by a Config knob whose mapping onto the paper's
// processor-count model is documented in DESIGN.md:
//
//   - admission control: a bounded in-flight budget (QueueDepth). A
//     request either takes a slot immediately or is shed with 503, so
//     overload degrades by rejecting early instead of queueing without
//     bound; admitted requests run under a server deadline
//     (RequestTimeout) joined with the client's own disconnect.
//   - a two-key response cache with single-flight dedup. The exact tier
//     is keyed by the SHA-256 of the raw body: a body already answered
//     with a 200 is served by one hash and one write, without decoding.
//     Behind it the canonical tier content-addresses the instance's
//     canonical encoding plus the solving options and rendering bits,
//     so the same instance spelled differently (another id, another key
//     order) still answers without touching the pool, and identical
//     in-flight requests fold into one solve.
//
// Entries hold rendered bytes: the leader of a solve encodes the
// response once, and every answer built from it — hit, coalesced waiter
// or the leader itself — splices in only its per-request fields.
//
// A cache miss is solved by its flight's leader, directly on the shared
// pool, under the flight's context: only identical requests share it, so
// abandoning one miss cancels that solve alone.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
	"weak"

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
	// CacheCapacity is the response LRU size in entries (default 4096;
	// negative disables both cache tiers and single-flight entirely).
	// Canonical entries are rendered responses, O(n) bytes each, so
	// residency is bounded by about CacheCapacity × O(MaxN) bytes per
	// store; the exact tier adds CacheCapacity entries of O(1) bytes.
	CacheCapacity int
	// RequestTimeout is the server-side deadline per admitted request
	// (default 30s; negative = none).
	RequestTimeout time.Duration
	// Pool is the worker pool every solve dispatches onto (nil = the
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
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is the serving layer. Build with New and mount Handler. It has
// nothing to close: every request is answered inside its handler, so a
// graceful http.Server.Shutdown drains it.
//
// A request is looked up under two keys: first the SHA-256 of its raw
// body (the exact tier), then, once decoded and validated, its canonical
// key. Both resolve to the same rendered-bytes entry.
type Server struct {
	cfg Config
	met *metrics

	// The canonical stores hold rendered bytes, not solutions: an entry
	// is the O(n) body a client receives (cost, digest, tree or path),
	// encoded once by the solve's leader, never the O(n^2) table behind
	// it, so only in-flight solves hold solver state. Entries are
	// immutable once stored; every request answers by splicing its own
	// per-request fields around them (entry.render).
	lru   *cache.Sharded[*entry] // nil when caching disabled
	group cache.Group[*entry]

	// Chain requests (wire.IsChainKind) cache and single-flight in their
	// own store, so the two recurrence classes can never collide on an
	// entry and each gets the full configured capacity.
	clru   *cache.Sharded[*entry] // nil when caching disabled
	cgroup cache.Group[*entry]

	// exact is the tier in front of both stores, keyed by the SHA-256 of
	// a raw body that has been answered with a 200. Its CacheCapacity
	// entries hold no body and no rendered bytes: only the body's
	// escaped id and a weak pointer to the canonical entry, so an exact
	// entry never keeps an evicted canonical entry alive. Once that
	// entry is collected, the body takes the full path again.
	exact *cache.Sharded[exactEntry] // nil when caching disabled

	slots chan struct{} // admission tokens; buffered to QueueDepth
}

// New validates the configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, ok := sublineardp.LookupEngine(cfg.Engine); !ok {
		return nil, fmt.Errorf("serve: unknown default engine %q (registered: %v)",
			cfg.Engine, sublineardp.Engines())
	}
	s := &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.QueueDepth),
	}
	if cfg.CacheCapacity > 0 {
		s.lru = cache.New[*entry](cfg.CacheCapacity, 16)
		s.clru = cache.New[*entry](cfg.CacheCapacity, 16)
		s.exact = cache.New[exactEntry](cfg.CacheCapacity, 16)
	}
	entries := func() int { return 0 }
	if s.lru != nil {
		entries = func() int { return s.lru.Len() + s.clru.Len() }
	}
	s.met = newMetrics(entries)
	return s, nil
}

// Metrics returns the counter surface (for tests and embedding).
func (s *Server) Metrics() MetricsSnapshot { return s.snapshot() }

// MetricsSnapshot is a point-in-time copy of the serving counters.
type MetricsSnapshot struct {
	Requests, OK                          int64
	ClientGone, RejectedFull, BadRequests int64
	Timeouts, SolveErrors                 int64
	CacheHits, Coalesced, Solved          int64
	ExactHits                             int64 // the subset of CacheHits the exact tier answered
	QueueDepth                            int64
}

func (s *Server) snapshot() MetricsSnapshot {
	m := s.met
	exactHits := m.exactHits.Load() // before cacheHits: see answer
	return MetricsSnapshot{
		Requests: m.requests.Load(), OK: m.ok.Load(),
		ClientGone: m.clientGone.Load(), RejectedFull: m.rejectedFull.Load(),
		BadRequests: m.badRequests.Load(), Timeouts: m.timeouts.Load(),
		SolveErrors: m.solveErrors.Load(), CacheHits: m.cacheHits.Load(),
		Coalesced: m.coalesced.Load(), Solved: m.solved.Load(),
		ExactHits: exactHits, QueueDepth: m.queueDepth.Load(),
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

// maxExactIDBytes bounds the escaped id an exact entry stores, so the
// exact tier's residency stays CacheCapacity × O(1) bytes whatever ids
// clients send. A body with a longer id is still answered from the
// canonical tier; it only never gets the exact fast path.
const maxExactIDBytes = 256

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.requests.Add(1)

	// Read the whole body once: an oversized one is a 400 here and never
	// reaches the hash, and the exact tier keys the very bytes a miss
	// decodes.
	body, err := readBody(w, r)
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	var exactKey cache.Key
	if s.exact != nil {
		exactKey = sha256.Sum256(body)
		if x, ok := s.exact.Get(exactKey); ok {
			if e := x.ent.Value(); e != nil {
				if !s.admit(w) {
					return
				}
				defer s.release()
				s.answer(w, e, x.id, viaExactHit, start)
				return
			}
		}
	}

	var req wire.Request
	dec := json.NewDecoder(bytes.NewReader(body))
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

	if !s.admit(w) {
		return
	}
	defer s.release()

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	var e *entry
	var route via
	if isChain {
		e, route, err = s.solveChain(ctx, chain, engine, &req, opts)
	} else {
		e, route, err = s.solve(ctx, in, engine, &req, opts)
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
	id := idField(req.ID)
	// Only a body answered with a 200 enters the exact tier, so every
	// body it answers has passed validation and the policy checks above.
	if s.answer(w, e, id, route, start) && s.exact != nil && len(id) <= maxExactIDBytes {
		s.exact.Add(exactKey, exactEntry{id: id, ent: weak.Make(e)})
	}
}

// readBody reads the request body whole, up to maxBodyBytes. A declared
// Content-Length sizes the buffer only up to 64 KiB, so a header alone
// never makes the server allocate more than that before bytes arrive.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// ReadFrom keeps MinRead bytes free before each read, so a body
		// within the hint is read into one allocation.
		buf.Grow(int(min(n, 64<<10)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), err
}

// admit takes an in-flight slot, or sheds the request with 503 and
// reports false. An admitted request must call release when done.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.slots <- struct{}{}:
		s.met.queueDepth.Add(1)
		return true
	default:
		s.met.rejectedFull.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("admission queue full (%d in flight)", s.cfg.QueueDepth))
		return false
	}
}

func (s *Server) release() {
	<-s.slots
	s.met.queueDepth.Add(-1)
}

// answer writes e's bytes with the request's own fields spliced in and
// counts the 200, reporting whether it was written. A request must
// resolve as exactly one of ok / clientGone / shed / rejected / timeout /
// solveError for the /metrics identity to balance, so the ok and
// hit/coalesced/solved counters only move once the bytes are written.
func (s *Server) answer(w http.ResponseWriter, e *entry, id []byte, route via, start time.Time) bool {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(e.render(id, route, time.Since(start))); err != nil {
		s.met.clientGone.Add(1)
		return false
	}
	s.met.ok.Add(1)
	s.met.observeLatency(time.Since(start).Seconds())
	switch route {
	case viaExactHit:
		// cacheHits first, and readers load exactHits first, so no
		// scrape ever sees more exact hits than hits.
		s.met.cacheHits.Add(1)
		s.met.exactHits.Add(1)
	case viaCacheHit:
		s.met.cacheHits.Add(1)
	case viaCoalesced:
		s.met.coalesced.Add(1)
	default:
		s.met.solved.Add(1)
	}
	return true
}

type via int

const (
	viaSolved via = iota
	viaCacheHit
	viaExactHit // a cache hit the exact tier answered, before decoding
	viaCoalesced
)

// entry is one rendered response, encoded once by its solve's leader
// and shared by every answer built from it. The per-request fields are
// split out, so an answer is
//
//	{ ["id":…,] head ["cached":true, | "coalesced":true,] tail "elapsed_us":N}
//
// plus a newline: json.Marshal's field order for wire.Response, byte for
// byte.
type entry struct {
	head []byte // the fields "kind" through "algebra", each ending in a comma
	tail []byte // `"reconstruction":{…},`, or empty
}

// exactEntry is an exact-tier value. It holds the `"id":…,` field of the
// body it is keyed by (empty without an id) and a weak pointer to the
// canonical entry that answered it.
type exactEntry struct {
	id  []byte
	ent weak.Pointer[entry]
}

// newEntry encodes resp as an entry, dropping its per-request fields.
// Every byte is encoded once: the reconstruction on its own, the rest as
// a response without it.
func newEntry(resp *wire.Response) (*entry, error) {
	rest := *resp
	rest.ID, rest.Cached, rest.Coalesced, rest.ElapsedMicros = "", false, false, 0
	rest.Reconstruction = nil
	b, err := json.Marshal(&rest)
	if err != nil {
		return nil, err
	}
	head, open := bytes.CutPrefix(b, []byte("{"))
	head, closed := bytes.CutSuffix(head, []byte(`"elapsed_us":0}`))
	if !open || !closed {
		return nil, fmt.Errorf("serve: response encodes as %s, want elapsed_us last", b)
	}
	e := &entry{head: head}
	if resp.Reconstruction != nil {
		rec, err := json.Marshal(resp.Reconstruction)
		if err != nil {
			return nil, err
		}
		e.tail = append(append([]byte(`"reconstruction":`), rec...), ',')
	}
	return e, nil
}

// render returns the response bytes for one request answered from e.
func (e *entry) render(id []byte, route via, elapsed time.Duration) []byte {
	const (
		cached    = `"cached":true,`
		coalesced = `"coalesced":true,`
		elapsedUs = `"elapsed_us":`
	)
	// 22 = the longest int64, then '}' and '\n'.
	b := make([]byte, 0, 1+len(id)+len(e.head)+len(coalesced)+len(e.tail)+len(elapsedUs)+22)
	b = append(append(append(b, '{'), id...), e.head...)
	switch route {
	case viaCacheHit, viaExactHit:
		b = append(b, cached...)
	case viaCoalesced:
		b = append(b, coalesced...)
	}
	b = append(append(b, e.tail...), elapsedUs...)
	b = strconv.AppendInt(b, elapsed.Microseconds(), 10)
	return append(b, '}', '\n')
}

// idField renders a request id as the `"id":…,` field that opens a
// response, escaped exactly as json.Marshal escapes it (HTML-safe), or
// nil for an empty id, which the response omits.
func idField(id string) []byte {
	if id == "" {
		return nil
	}
	q, _ := json.Marshal(id) // a string always marshals
	return append(append([]byte(`"id":`), q...), ',')
}

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
// carries it.)
func renderBits(h *cache.Hasher, req *wire.Request) *cache.Hasher {
	return h.Bool("want_tree", req.WantTree).Bool("return_splits", req.ReturnSplits)
}

// optionsSig renders the solving configuration of a request into the
// string that content-addresses it with the instance. splits keys split
// recording: a split-recording solve carries reconstruction state a
// non-recording one does not, so the two never share a cache entry
// (chain requests always pass false — reconstruction there reads the
// value vector and does not change the solve).
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

// solve runs the cache → single-flight → engine protocol for one
// admitted interval request and returns its rendered entry.
func (s *Server) solve(ctx context.Context, in *sublineardp.Instance, engine string, req *wire.Request, opts []sublineardp.Option) (*entry, via, error) {
	key, keyed := solveKey(in, optionsSig(engine, req.Options, in.Algebra, req.ReturnSplits), req)
	render := func(fctx context.Context) (*entry, error) {
		solver, err := sublineardp.NewSolver(engine, append(opts, sublineardp.WithPool(s.cfg.Pool))...)
		if err != nil {
			return nil, err
		}
		sol, err := solver.Solve(fctx, in)
		if err != nil {
			return nil, err
		}
		return newEntry(wire.NewResponse(req, sol))
	}
	return fromCache(ctx, s.lru, &s.group, key, keyed, render)
}

// chainSolveKey is solveKey for chain requests. The "chain" tag and the
// chain's own canonical domain tags keep chain entries disjoint from
// interval ones.
func chainSolveKey(c *sublineardp.Chain, sig string, req *wire.Request) (cache.Key, bool) {
	canon, ok := c.Canonical()
	if !ok {
		return cache.Key{}, false
	}
	return renderBits(cache.NewHasher().Bytes("chain", canon).String("opts", sig), req).Sum(), true
}

// solveChain runs the cache → single-flight → engine protocol for one
// admitted chain request, against the chain store.
func (s *Server) solveChain(ctx context.Context, c *sublineardp.Chain, engine string, req *wire.Request, opts []sublineardp.Option) (*entry, via, error) {
	key, keyed := chainSolveKey(c, optionsSig(engine, req.Options, c.Algebra, false), req)
	render := func(fctx context.Context) (*entry, error) {
		solver, err := sublineardp.NewChainSolver(engine, append(opts, sublineardp.WithPool(s.cfg.Pool))...)
		if err != nil {
			return nil, err
		}
		csol, err := solver.Solve(fctx, c)
		if err != nil {
			return nil, err
		}
		return newEntry(wire.NewChainResponse(req, csol))
	}
	return fromCache(ctx, s.clru, &s.cgroup, key, keyed, render)
}

// fromCache answers a keyed request from the store, else from a
// single-flight whose leader solves and renders once: the digest,
// reconstruction and JSON encoding are computed once per solve, never
// per hit or per coalesced waiter, and the solution itself is garbage as
// soon as it is rendered. The returned entry is shared and immutable.
func fromCache(ctx context.Context, lru *cache.Sharded[*entry], group *cache.Group[*entry],
	key cache.Key, keyed bool, render func(context.Context) (*entry, error)) (*entry, via, error) {
	if lru == nil || !keyed {
		e, err := render(ctx)
		return e, viaSolved, err
	}
	if e, ok := lru.Get(key); ok {
		return e, viaCacheHit, nil
	}
	e, joined, err := group.Do(ctx, key, func(fctx context.Context) (*entry, error) {
		e, err := render(fctx)
		if err != nil {
			return nil, err
		}
		lru.Add(key, e)
		return e, nil
	})
	switch {
	case err != nil:
		return nil, viaSolved, err
	case joined:
		return e, viaCoalesced, nil
	}
	return e, viaSolved, nil
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wire.ErrorBody{Error: err.Error(), Code: code})
}
