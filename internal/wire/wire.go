// Package wire defines the JSON request/response format of the dpserved
// HTTP API — the network representation of an Instance and a Solution.
//
// Instances cross the wire as their defining parameters (matrix
// dimensions, OBST weights, polygon vertices), never as closures, so a
// decoded request rebuilds its instance through the same constructors
// in-process callers use and inherits their canonical encoding — the
// property the serving cache's correctness rests on (FuzzCanonicalHash).
//
// The format is frozen by golden-file tests (testdata/*.json, refreshed
// with `go test ./internal/wire -update`): changing a field name or the
// rendering of a value is a wire-format break and fails the suite.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"sublineardp"
	"sublineardp/internal/btree"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
)

// Instance kinds accepted on the wire.
const (
	KindMatrixChain    = "matrixchain"
	KindOBST           = "obst"
	KindTriangulation  = "triangulation"
	KindWTriangulation = "wtriangulation"
	// KindWorstChain is the max-plus twin of matrixchain: the costliest
	// parenthesization of the same dimension list (adversarial bound).
	KindWorstChain = "worstchain"
	// KindBoolSplit is the bool-plan forbidden-split feasibility family:
	// does a parenthesization of `count` objects exist that avoids every
	// forbidden subexpression (i,j)?
	KindBoolSplit = "boolsplit"
)

// Chain kinds: 1D prefix recurrences (recurrence.Chain) solved by the
// chain engine registry (sequential / tiled / llp) rather than the
// interval one.
const (
	// KindSegLS is segmented least squares over the points in
	// Request.Points (x strictly increasing) with per-segment penalty
	// Request.Penalty. Min-plus.
	KindSegLS = "segls"
	// KindWIS is weighted interval scheduling over Starts/Ends/Weights.
	// Max-plus.
	KindWIS = "wis"
	// KindSubsetSum asks whether Target is a nonnegative-integer
	// combination of Items (coin-style, unbounded repetition). Bool-plan.
	KindSubsetSum = "subsetsum"
)

// IsChainKind reports whether kind names a chain (1D prefix) recurrence
// rather than an interval one — the routing predicate the serving layer
// branches on.
func IsChainKind(kind string) bool {
	switch kind {
	case KindSegLS, KindWIS, KindSubsetSum:
		return true
	}
	return false
}

// Span is a forbidden subexpression (i,j) of a boolsplit request,
// encoded on the wire as the two-element array [i, j].
type Span = [2]int

// Point is a polygon vertex, or a segls data point, on the wire.
type Point = problems.Point

// Options carries the solver configuration of one request. Every field
// is optional; the zero value means "server default". Enum fields use
// the dpsolve CLI spellings.
type Options struct {
	// Engine is a registry name ("auto", "sequential", "hlv-banded", ...).
	//lint:allow keycoverage the server resolves it first (request, then its default) and keys the result as optionsSig's engine argument
	Engine string `json:"engine,omitempty"`
	// Mode is "sync" or "chaotic".
	Mode string `json:"mode,omitempty"`
	// Termination is "fixed", "w-stable" or "wpw-stable".
	Termination string `json:"termination,omitempty"`
	// Semiring overrides the algebra the recurrence is evaluated over —
	// any name registered with RegisterSemiring ("min-plus", "max-plus",
	// "bool-plan" shipped). Kinds with an intrinsic algebra (worstchain,
	// boolsplit) need no override; setting one anyway wins, exactly as
	// WithSemiring does in-process.
	Semiring      string `json:"semiring,omitempty"`
	MaxIterations int    `json:"max_iterations,omitempty"`
	BandRadius    int    `json:"band_radius,omitempty"`
	// Window toggles the HLV banded engine's Section 5 windowed pebble
	// schedule (WithWindow) — a solver scheduling knob, not to be
	// confused with Request.ChainWindow, which restricts a chain
	// recurrence's candidate set and changes the answer.
	Window     bool `json:"window,omitempty"`
	TileSize   int  `json:"tile_size,omitempty"`
	Workers    int  `json:"workers,omitempty"`
	AutoCutoff int  `json:"auto_cutoff,omitempty"`
	// AutoLargeCutoff is accepted and ignored, so clients that still
	// send it keep working: such a request solves and caches exactly
	// like its twin without the field.
	//lint:allow keycoverage accepted and ignored: keying it would split identical solves (TestAutoLargeCutoffIsIgnored)
	AutoLargeCutoff int `json:"auto_large_cutoff,omitempty"`
}

// Request is one solve request. Exactly the parameter fields of its Kind
// may be set: Dims for matrixchain, Alpha/Beta for obst, Points for
// triangulation, Weights for wtriangulation.
type Request struct {
	// ID is an opaque client correlation tag echoed on the response.
	ID      string  `json:"id,omitempty"`
	Kind    string  `json:"kind"`
	Dims    []int   `json:"dims,omitempty"`
	Alpha   []int64 `json:"alpha,omitempty"`
	Beta    []int64 `json:"beta,omitempty"`
	Points  []Point `json:"points,omitempty"`
	Weights []int64 `json:"weights,omitempty"`
	// Count and Forbidden parameterise boolsplit: n objects and the
	// forbidden subexpressions.
	Count     int    `json:"count,omitempty"`
	Forbidden []Span `json:"forbidden,omitempty"`
	// Penalty parameterises segls (per-segment cost; the points ride in
	// Points). Starts/Ends carry the wis jobs, with Weights reused for
	// the job weights. Target and Items parameterise subsetsum.
	Penalty int64   `json:"penalty,omitempty"`
	Starts  []int64 `json:"starts,omitempty"`
	Ends    []int64 `json:"ends,omitempty"`
	Target  int64   `json:"target,omitempty"`
	Items   []int64 `json:"items,omitempty"`
	// ChainWindow restricts the candidate set of a chain-kind request to
	// k >= j-ChainWindow (recurrence.Chain.Window; 0 = full prefix). It
	// is part of the problem statement — a windowed chain never shares a
	// cache entry with its full-prefix twin — unlike Options.Window,
	// which is an HLV scheduling knob that cannot change the answer.
	ChainWindow int     `json:"chain_window,omitempty"`
	Options     Options `json:"options,omitzero"`
	// WantTree requests the optimal parenthesization in Response.Tree
	// (adds an O(n^2) reconstruction on the serving path). Deprecated in
	// favour of ReturnSplits, which serves every algebra and records
	// splits during large solves; kept for wire compatibility.
	WantTree bool `json:"want_tree,omitempty"`
	// ReturnSplits requests the solve record split points
	// (sublineardp.WithSplits on interval kinds) and return the
	// reconstruction — the optimal tree of an interval kind, the witness
	// breakpoint path of a chain kind — in Response.Reconstruction, with
	// its own digest. Works under every registered algebra, and on the
	// blocked engine costs O(n) reconstruction instead of a table
	// re-scan.
	ReturnSplits bool `json:"return_splits,omitempty"`
}

// Response is the outcome of one solve request.
type Response struct {
	ID     string `json:"id,omitempty"`
	Kind   string `json:"kind"`
	N      int    `json:"n"`
	Engine string `json:"engine"`
	Cost   int64  `json:"cost"`
	// TableDigest is the hex SHA-256 of the full converged cost table
	// (TableDigest function), so clients — and the e2e suite — can check
	// bitwise agreement with a local solve without shipping O(n^2) values.
	TableDigest  string `json:"table_digest"`
	Iterations   int    `json:"iterations,omitempty"`
	StoppedEarly bool   `json:"stopped_early,omitempty"`
	BandRadius   int    `json:"band_radius,omitempty"`
	Tree         string `json:"tree,omitempty"`
	// Algebra names the semiring the solve ran under, omitted for the
	// default min-plus — the key to reading Cost (minimal cost, maximal
	// cost, or 0/1 feasibility).
	Algebra string `json:"algebra,omitempty"`
	// Cached reports the solution came from the server's canonical
	// instance cache; Coalesced that this request folded into an
	// identical in-flight solve. At most one is set.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Reconstruction carries the solution path when the request set
	// ReturnSplits: the optimal tree (interval kinds) or witness
	// breakpoint path (chain kinds) with its own digest, or the reason
	// no path exists. Omitted entirely unless requested, so responses to
	// old clients are byte-identical.
	Reconstruction *Reconstruction `json:"reconstruction,omitempty"`
	// ElapsedMicros is the server-side solve (or wait) duration.
	ElapsedMicros int64 `json:"elapsed_us"`
}

// Reconstruction is the solution-path section of a response
// (Request.ReturnSplits). Exactly one of Tree/Path is set on success;
// Error reports a genuinely unavailable path (an infeasible instance, a
// non-converged table) — the request itself still succeeds, values are
// served either way.
type Reconstruction struct {
	// Tree is the optimal parenthesization of an interval kind in the
	// btree S-expression encoding ("(k L R)" nodes, "." leaves).
	Tree string `json:"tree,omitempty"`
	// Path is the witness breakpoint sequence 0 = k_0 < ... < k_m = N of
	// a chain kind.
	Path []int `json:"path,omitempty"`
	// Digest is the hex SHA-256 of the tree or path (TreeDigest /
	// PathDigest — domain-separated from each other and from value
	// digests), so clients can check reconstruction agreement without
	// re-deriving it.
	Digest string `json:"digest,omitempty"`
	// Error is why no path could be reconstructed.
	Error string `json:"error,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// N returns the instance size the request describes, without building
// the instance (0 for malformed parameter sets).
func (r *Request) N() int {
	switch r.Kind {
	case KindMatrixChain, KindWorstChain:
		return len(r.Dims) - 1
	case KindOBST:
		return len(r.Beta) + 1
	case KindTriangulation:
		return len(r.Points) - 1
	case KindWTriangulation:
		return len(r.Weights) - 1
	case KindBoolSplit:
		return r.Count
	case KindSegLS:
		return len(r.Points)
	case KindWIS:
		return len(r.Starts)
	case KindSubsetSum:
		return int(r.Target)
	}
	return 0
}

// Validate checks the request is well formed and its instance size is
// within maxN (<= 0 means unbounded). It mirrors the constructor
// preconditions as errors so a malformed request is a 400, not a panic.
func (r *Request) Validate(maxN int) error {
	switch r.Kind {
	case KindMatrixChain, KindWorstChain:
		if len(r.Dims) < 2 {
			return fmt.Errorf("wire: %s needs >= 2 dims, got %d", r.Kind, len(r.Dims))
		}
		for _, d := range r.Dims {
			if d <= 0 {
				return fmt.Errorf("wire: nonpositive matrix dimension %d", d)
			}
		}
		if err := checkMaxCost(r.Kind, "dims", problems.ProductChainMaxCost(r.Dims)); err != nil {
			return err
		}
	case KindBoolSplit:
		if r.Count < 1 {
			return fmt.Errorf("wire: boolsplit needs count >= 1, got %d", r.Count)
		}
		for _, p := range r.Forbidden {
			if p[0] < 0 || p[0] >= p[1] || p[1] > r.Count {
				return fmt.Errorf("wire: forbidden pair (%d,%d) outside 0 <= i < j <= %d", p[0], p[1], r.Count)
			}
		}
	case KindOBST:
		if len(r.Beta) < 1 {
			return fmt.Errorf("wire: obst needs >= 1 beta weight")
		}
		if len(r.Alpha) != len(r.Beta)+1 {
			return fmt.Errorf("wire: obst needs len(alpha) == len(beta)+1, got %d and %d",
				len(r.Alpha), len(r.Beta))
		}
		for _, v := range r.Alpha {
			if v < 0 {
				return fmt.Errorf("wire: negative alpha weight %d", v)
			}
		}
		for _, v := range r.Beta {
			if v < 0 {
				return fmt.Errorf("wire: negative beta weight %d", v)
			}
		}
		if err := checkMaxCost(r.Kind, "alpha/beta weights", problems.OBSTMaxCost(r.Alpha, r.Beta)); err != nil {
			return err
		}
	case KindTriangulation:
		if len(r.Points) < 3 {
			return fmt.Errorf("wire: triangulation needs >= 3 points, got %d", len(r.Points))
		}
		if err := checkMaxCost(r.Kind, "coordinates", problems.TriangulationMaxCost(r.Points)); err != nil {
			return err
		}
	case KindWTriangulation:
		if len(r.Weights) < 3 {
			return fmt.Errorf("wire: wtriangulation needs >= 3 weights, got %d", len(r.Weights))
		}
		for _, w := range r.Weights {
			if w <= 0 {
				return fmt.Errorf("wire: nonpositive vertex weight %d", w)
			}
		}
		if err := checkMaxCost(r.Kind, "weights", problems.ProductChainMaxCost(r.Weights)); err != nil {
			return err
		}
	case KindSegLS:
		if len(r.Points) < 1 {
			return fmt.Errorf("wire: segls needs >= 1 point, got %d", len(r.Points))
		}
		if r.Penalty < 0 {
			return fmt.Errorf("wire: negative segment penalty %d", r.Penalty)
		}
		for t := 1; t < len(r.Points); t++ {
			if r.Points[t].X <= r.Points[t-1].X {
				return fmt.Errorf("wire: segls xs must be strictly increasing, x[%d]=%d after %d",
					t, r.Points[t].X, r.Points[t-1].X)
			}
		}
		if err := checkMaxCost(r.Kind, "ys/penalty", problems.SegmentedLeastSquaresMaxCost(r.Points, r.Penalty)); err != nil {
			return err
		}
	case KindWIS:
		if len(r.Starts) < 1 || len(r.Starts) != len(r.Ends) || len(r.Starts) != len(r.Weights) {
			return fmt.Errorf("wire: wis needs matching nonempty starts/ends/weights, got %d/%d/%d",
				len(r.Starts), len(r.Ends), len(r.Weights))
		}
		for t := range r.Starts {
			if r.Starts[t] >= r.Ends[t] {
				return fmt.Errorf("wire: wis job %d has start %d >= end %d", t, r.Starts[t], r.Ends[t])
			}
			if r.Weights[t] < 0 {
				return fmt.Errorf("wire: wis job %d has negative weight %d", t, r.Weights[t])
			}
		}
		if err := checkMaxCost(r.Kind, "weights", problems.IntervalSchedulingMaxCost(r.Weights)); err != nil {
			return err
		}
	case KindSubsetSum:
		if r.Target < 1 {
			return fmt.Errorf("wire: subsetsum needs target >= 1, got %d", r.Target)
		}
		if len(r.Items) < 1 {
			return fmt.Errorf("wire: subsetsum needs at least one item")
		}
		for _, it := range r.Items {
			if it < 1 {
				return fmt.Errorf("wire: subsetsum items must be positive, got %d", it)
			}
		}
	case "":
		return fmt.Errorf("wire: missing kind")
	default:
		return fmt.Errorf("wire: unknown kind %q", r.Kind)
	}
	if r.ChainWindow != 0 {
		if !IsChainKind(r.Kind) {
			return fmt.Errorf("wire: chain_window applies to chain kinds only, not %q", r.Kind)
		}
		if r.ChainWindow < 0 {
			return fmt.Errorf("wire: negative chain_window %d", r.ChainWindow)
		}
	}
	if maxN > 0 && r.N() > maxN {
		return fmt.Errorf("wire: instance size n=%d exceeds the server limit n=%d", r.N(), maxN)
	}
	if _, err := r.SolverOptions(); err != nil {
		return err
	}
	return nil
}

// checkMaxCost rejects an instance whose worst-case total cost (from the
// kind's cost formula in internal/problems) is not below cost.Inf: such
// an instance can overflow the cost domain, and a feasible one would
// come back as cost.Inf, which means "unreachable".
func checkMaxCost(kind, field string, worst int64) error {
	if worst >= int64(cost.Inf) {
		return fmt.Errorf("wire: %s %s too large: the worst-case total cost must stay below %d", kind, field, cost.Inf)
	}
	return nil
}

// Instance builds the recurrence instance the request describes, through
// the same constructors in-process callers use. Call Validate first; a
// malformed request may panic here exactly as a malformed constructor
// call would.
func (r *Request) Instance() (*recurrence.Instance, error) {
	switch r.Kind {
	case KindMatrixChain:
		return problems.MatrixChain(r.Dims), nil
	case KindWorstChain:
		return problems.WorstCaseMatrixChain(r.Dims), nil
	case KindBoolSplit:
		return problems.ForbiddenSplits(r.Count, r.Forbidden), nil
	case KindOBST:
		return problems.OBST(r.Alpha, r.Beta), nil
	case KindTriangulation:
		return problems.Triangulation(r.Points), nil
	case KindWTriangulation:
		return problems.WeightedTriangulation(r.Weights), nil
	}
	if IsChainKind(r.Kind) {
		return nil, fmt.Errorf("wire: %q is a chain kind; use ChainInstance", r.Kind)
	}
	return nil, fmt.Errorf("wire: unknown kind %q", r.Kind)
}

// ChainInstance builds the chain recurrence the request describes,
// through the same constructors in-process callers use. Call Validate
// first, exactly as with Instance. A positive ChainWindow tightens the
// constructor's window (constructors may already set one — subset sum's
// largest item); it never widens a constructor window, which would admit
// candidates the family's F does not define.
func (r *Request) ChainInstance() (*recurrence.Chain, error) {
	var c *recurrence.Chain
	switch r.Kind {
	case KindSegLS:
		xs := make([]int64, len(r.Points))
		ys := make([]int64, len(r.Points))
		for i, p := range r.Points {
			xs[i], ys[i] = p.X, p.Y
		}
		c = problems.SegmentedLeastSquares(xs, ys, r.Penalty)
	case KindWIS:
		c = problems.IntervalScheduling(r.Starts, r.Ends, r.Weights)
	case KindSubsetSum:
		c = problems.SubsetSum(r.Target, r.Items)
	default:
		return nil, fmt.Errorf("wire: %q is not a chain kind", r.Kind)
	}
	if r.ChainWindow > 0 && (c.Window == 0 || r.ChainWindow < c.Window) {
		c.Window = r.ChainWindow
	}
	return c, nil
}

// SolverOptions maps the wire options onto functional options for
// NewSolver/SolveBatch, rejecting unknown enum spellings. The engine
// name is returned by Engine(), not here, because NewSolver takes it
// positionally.
func (r *Request) SolverOptions() ([]sublineardp.Option, error) {
	o := r.Options
	var opts []sublineardp.Option
	switch o.Mode {
	case "", "sync":
	case "chaotic":
		opts = append(opts, sublineardp.WithMode(sublineardp.Chaotic))
	default:
		return nil, fmt.Errorf("wire: unknown mode %q", o.Mode)
	}
	switch o.Termination {
	case "", "fixed":
	case "w-stable":
		opts = append(opts, sublineardp.WithTermination(sublineardp.WStable))
	case "wpw-stable":
		opts = append(opts, sublineardp.WithTermination(sublineardp.WPWStable))
	default:
		return nil, fmt.Errorf("wire: unknown termination %q", o.Termination)
	}
	switch o.Semiring {
	case "":
	default:
		sr, ok := sublineardp.LookupSemiring(o.Semiring)
		if !ok {
			return nil, fmt.Errorf("wire: unknown semiring %q (registered: %v)",
				o.Semiring, sublineardp.Semirings())
		}
		opts = append(opts, sublineardp.WithSemiring(sr))
	}
	if o.MaxIterations > 0 {
		opts = append(opts, sublineardp.WithMaxIterations(o.MaxIterations))
	}
	if o.BandRadius > 0 {
		opts = append(opts, sublineardp.WithBandRadius(o.BandRadius))
	}
	if o.Window {
		opts = append(opts, sublineardp.WithWindow(true))
	}
	if o.TileSize > 0 {
		opts = append(opts, sublineardp.WithTileSize(o.TileSize))
	}
	if o.Workers > 0 {
		opts = append(opts, sublineardp.WithWorkers(o.Workers))
	}
	if o.AutoCutoff > 0 {
		opts = append(opts, sublineardp.WithAutoCutoff(o.AutoCutoff))
	}
	if r.ReturnSplits && !IsChainKind(r.Kind) {
		// Record splits during the solve so the reconstruction the
		// response carries is O(n) on the recording engines. Chain solves
		// reconstruct from the vector; no solver option needed.
		opts = append(opts, sublineardp.WithSplits(true))
	}
	return opts, nil
}

// Engine returns the requested engine registry name ("" = server's
// default).
func (r *Request) Engine() string { return r.Options.Engine }

// NewResponse renders a Solution as the wire response for its request.
// Tree reconstruction runs only when the request asked for it and the
// solve ran under the default min-plus algebra (the serving path
// recovers trees from value tables, which is min-plus only; the algebra
// is echoed in Response.Algebra either way).
func NewResponse(r *Request, sol *sublineardp.Solution) *Response {
	resp := &Response{
		ID:            r.ID,
		Kind:          r.Kind,
		N:             sol.N(),
		Engine:        sol.Engine,
		Cost:          int64(sol.Cost()),
		TableDigest:   TableDigest(sol.Table),
		Iterations:    sol.Iterations,
		StoppedEarly:  sol.StoppedEarly,
		BandRadius:    sol.BandRadius,
		ElapsedMicros: sol.Elapsed.Microseconds(),
	}
	if sol.Algebra != "" && sol.Algebra != "min-plus" {
		resp.Algebra = sol.Algebra
	}
	if r.WantTree && (sol.Algebra == "" || sol.Algebra == "min-plus") {
		if tr, err := sol.Tree(); err == nil {
			resp.Tree = tr.Encode()
		}
	}
	if r.ReturnSplits {
		rec := &Reconstruction{}
		if tr, err := sol.Tree(); err == nil {
			rec.Tree = tr.Encode()
			rec.Digest = TreeDigest(tr)
		} else {
			rec.Error = err.Error()
		}
		resp.Reconstruction = rec
	}
	return resp
}

// NewChainResponse renders a ChainSolution as the wire response for its
// chain-kind request. TableDigest carries the VectorDigest of the value
// vector (domain-separated from interval table digests); Iterations
// carries the LLP engine's sweep count (0 for the other engines).
// WantTree returns the optimal breakpoint sequence ("0 4 9 ... n",
// space-separated) in Tree when the instance is feasible.
func NewChainResponse(r *Request, sol *sublineardp.ChainSolution) *Response {
	resp := &Response{
		ID:            r.ID,
		Kind:          r.Kind,
		N:             sol.N(),
		Engine:        sol.Engine,
		Cost:          int64(sol.Cost()),
		TableDigest:   VectorDigest(sol.Values),
		Iterations:    sol.Sweeps,
		ElapsedMicros: sol.Elapsed.Microseconds(),
	}
	if sol.Algebra != "" && sol.Algebra != "min-plus" {
		resp.Algebra = sol.Algebra
	}
	if r.WantTree && sol.Feasible() {
		if path, err := sol.Path(); err == nil {
			var b []byte
			for i, p := range path {
				if i > 0 {
					b = append(b, ' ')
				}
				b = fmt.Appendf(b, "%d", p)
			}
			resp.Tree = string(b)
		}
	}
	if r.ReturnSplits {
		rec := &Reconstruction{}
		if path, err := sol.Path(); err == nil {
			rec.Path = path
			rec.Digest = PathDigest(path)
		} else {
			rec.Error = err.Error()
		}
		resp.Reconstruction = rec
	}
	return resp
}

// TableDigest returns the hex SHA-256 over the table's size and every
// normalised upper-triangle entry in row-major order — the bitwise
// identity of a solve result. The packed table stores exactly those
// entries, in that order, as one run after its pad slot.
func TableDigest(t *recurrence.Table) string {
	d := newDigester("")
	d.varint(int64(t.N))
	d.costs(t.Data()[1:])
	return d.sum()
}

// digestChunk is the buffered digests' flush threshold: varints
// accumulate in one local buffer and reach the hash in writes of at
// least this many bytes, instead of one Write call per entry. The
// hashed byte stream is exactly the per-entry one.
const digestChunk = 4 << 10

// digester is the buffered varint writer behind TableDigest,
// VectorDigest and PathDigest.
type digester struct {
	h   hash.Hash
	buf []byte // len digestChunk + MaxVarintLen64: the last varint may overrun the threshold
	n   int    // bytes of buf pending
}

// newDigester starts a digest with the given domain tag ("" = none).
func newDigester(tag string) *digester {
	d := &digester{h: sha256.New(), buf: make([]byte, digestChunk+binary.MaxVarintLen64)}
	d.n = copy(d.buf, tag)
	return d
}

// varint appends one value.
func (d *digester) varint(v int64) {
	d.n += binary.PutVarint(d.buf[d.n:], v)
	if d.n >= digestChunk {
		d.h.Write(d.buf[:d.n])
		d.n = 0
	}
}

// costs appends every normalised value of vals: varint's loop for the
// table and vector digests, with no call per entry.
func (d *digester) costs(vals []cost.Cost) {
	buf, n := d.buf, d.n
	for _, c := range vals {
		n += binary.PutVarint(buf[n:], int64(cost.Norm(c)))
		if n >= digestChunk {
			d.h.Write(buf[:n])
			n = 0
		}
	}
	d.n = n
}

// sum hashes the pending bytes and returns the hex digest.
func (d *digester) sum() string {
	d.h.Write(d.buf[:d.n])
	return hex.EncodeToString(d.h.Sum(nil))
}

// TreeDigest returns the hex SHA-256 over a "tree" domain tag and the
// tree's S-expression encoding — the bitwise identity of a
// reconstruction, separated from value digests (and from PathDigest) so
// no two digest kinds can ever collide.
func TreeDigest(t *btree.Tree) string {
	h := sha256.New()
	h.Write([]byte("tree"))
	h.Write([]byte(t.Encode()))
	return hex.EncodeToString(h.Sum(nil))
}

// PathDigest is TreeDigest for chain witness paths: the hex SHA-256 over
// a "path" domain tag, the breakpoint count, and every breakpoint as a
// varint.
func PathDigest(path []int) string {
	d := newDigester("path")
	d.varint(int64(len(path)))
	for _, p := range path {
		d.varint(int64(p))
	}
	return d.sum()
}

// VectorDigest is TableDigest for chain value vectors: the hex SHA-256
// over a "chain" domain tag, the vector's size, and every normalised
// value c(0..n) — so a chain digest can never collide with an interval
// table digest even on identical payload bytes.
func VectorDigest(v *recurrence.Vector) string {
	d := newDigester("chain")
	d.varint(int64(v.N))
	d.costs(v.Data()[:v.N+1])
	return d.sum()
}
