package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"sublineardp/internal/cache"
	"sublineardp/internal/problems"
	"sublineardp/internal/wire"
	"sublineardp/internal/workload"
)

// The three workloads. Each one is a fixed, seed-determined request set:
// the run sends exactly these requests, so two commits compared on the
// same seed do the same work.
const (
	wlServeHot   = "serve-hot"
	wlServeCold  = "serve-cold"
	wlSolveLarge = "solve-large"
)

var workloadNames = []string{wlServeHot, wlServeCold, wlSolveLarge}

// Request-set sizes per second of --seconds. They are constants, not
// measurements, so a run's work depends only on --seconds.
const (
	// hotPerSecond is serve-hot's measured requests per second of
	// --seconds: about the closed-loop capacity of the all-hit mix on a
	// 2-core machine, so the measured phase fills the run.
	hotPerSecond = 6000
	// coldRate is serve-cold's open-loop arrival rate in requests per
	// second: about a quarter of the closed-loop capacity of its all-miss
	// mix on a 2-core machine (servebench -capacity measures about 420).
	// At half capacity a slow spell of a shared host pushes the server
	// near saturation and the tail percentiles swing by half from run to
	// run; at a quarter they stay within about a tenth.
	coldRate = 100
	// largePerSecond is solve-large's request count per second of
	// --seconds (closed loop): about 1.5 times its one-connection
	// capacity on a 2-core machine, so that a run holds about five n=1024
	// chains.
	largePerSecond = 16
	// hotDistinct is how many distinct instances each serve-hot family
	// contributes.
	hotDistinct = 8
)

// request is one generated /solve request.
type request struct {
	ID     string // instance identity: equal IDs are the same instance and options
	Family string
	N      int
	Req    *wire.Request
	Body   []byte
}

// requestSet is a workload's traffic: an optional set-up pass, then the
// measured sequence.
type requestSet struct {
	Workload string
	Seed     int64
	Closed   bool    // closed loop; otherwise open loop at Rate
	Rate     float64 // open-loop arrivals per second
	Conns    int
	Warm     []*request // sent once during set-up (serve-hot)
	Reqs     []*request // the measured sequence, in send order
}

// slot is one position of a workload's family pattern.
type slot struct {
	family string
	n      int
}

// hotFamilies are the ten dploadgen families, all at n=48.
var hotFamilies = []slot{
	{"mlp", 48}, {"mlptree", 48}, {"dictionary", 48}, {"polygon", 48}, {"worstchain", 48},
	{"boolplan", 48}, {"segls", 48}, {"seglspath", 48}, {"wis", 48}, {"subsetsum", 48},
}

// coldPattern is serve-cold's repeating family order, 64 requests long:
// interval kinds at n=48 (auto routes them to sequential) fill three of
// every five slots, chain kinds at n=1024 (auto routes them to llp) the
// other two. A cached segls solution keeps its instance's (n+1)^2 error
// table alive (about 8 MB at n=1024), so segls and seglspath take one
// chain slot each per 64 requests to bound the server's memory; wis and
// subsetsum alternate in the rest.
var coldPattern = func() []slot {
	interval := []string{"mlp", "dictionary", "polygon", "worstchain", "boolplan", "mlptree"}
	var out []slot
	iv, ch := 0, 0
	for i := 0; i < 64; i++ {
		if i%5 != 1 && i%5 != 4 {
			out = append(out, slot{interval[iv%len(interval)], 48})
			iv++
			continue
		}
		fam := []string{"wis", "subsetsum"}[ch%2]
		switch ch {
		case 6:
			fam = "segls"
		case 19:
			fam = "seglspath"
		}
		out = append(out, slot{fam, 1024})
		ch++
	}
	return out
}()

// largePattern is solve-large's repeating family order, 80 requests
// long. Matrix chains, worstchain and boolplan at n=512 and n=1024 route
// to blocked-pipe; the convex dictionary OBST at n=2048 routes to
// blocked-ky. The shares put each reported percentile in the middle of
// one group of similar requests rather than on the edge between two:
// the n=512 matrix chains and worstchains are the fastest 75% (p50), the
// dictionary OBSTs the next 2.5%, the n=512 boolplans the next 20% (p90)
// and the n=1024 matrix chains the slowest 2.5% (p99, the middle of
// about five such requests in a run). One OBST entry holds about 50 MB
// in the server's cache, which bounds its share.
var largePattern = func() []slot {
	half := []slot{
		{"mlp", 512}, {"worstchain", 512}, {"boolplan", 512}, {"mlptree", 512}, {"mlp", 512},
		{"worstchain", 512}, {"mlp", 1024}, {"mlp", 512}, {"boolplan", 512}, {"worstchain", 512},
		{"mlp", 512}, {"dictionary", 2048}, {"worstchain", 512}, {"mlptree", 512}, {"boolplan", 512},
		{"mlp", 512}, {"worstchain", 512}, {"mlp", 512}, {"boolplan", 512}, {"worstchain", 512},
		{"mlp", 512}, {"worstchain", 512}, {"boolplan", 512}, {"mlptree", 512}, {"mlp", 512},
		{"worstchain", 512}, {"mlp", 512}, {"mlp", 512}, {"boolplan", 512}, {"worstchain", 512},
		{"mlp", 512}, {"mlp", 512}, {"worstchain", 512}, {"mlptree", 512}, {"boolplan", 512},
		{"mlp", 512}, {"worstchain", 512}, {"mlp", 512}, {"boolplan", 512}, {"worstchain", 512},
	}
	// The second half asks for the n=1024 chain's tree too.
	second := append([]slot(nil), half...)
	second[6] = slot{"mlptree", 1024}
	return append(half, second...)
}()

// buildSet generates the request set of a workload for a seed. The same
// arguments always give byte-identical requests.
func buildSet(name string, seed int64, seconds int) (*requestSet, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	g := newGenerator(seed)
	set := &requestSet{Workload: name, Seed: seed, Conns: 2, Closed: true}
	switch name {
	case wlServeHot:
		var distinct []*request
		for _, s := range hotFamilies {
			for d := 0; d < hotDistinct; d++ {
				r, err := g.fresh(s)
				if err != nil {
					return nil, err
				}
				distinct = append(distinct, r)
			}
		}
		set.Warm = distinct
		// The measured phase cycles through one seeded permutation of the
		// distinct instances, so every instance is hit equally often.
		perm := rand.New(rand.NewSource(seed)).Perm(len(distinct))
		count := hotPerSecond * seconds
		for i := 0; i < count; i++ {
			set.Reqs = append(set.Reqs, distinct[perm[i%len(perm)]])
		}
	case wlServeCold:
		set.Closed = false
		set.Rate = coldRate
		if err := g.fill(set, coldPattern, coldRate*seconds); err != nil {
			return nil, err
		}
	case wlSolveLarge:
		// One connection: with two, each solve shares the two cores with
		// the other connection's solve and about half of every handler's
		// time is waiting for a core, which hides the engines behind the
		// contention instead of measuring them.
		set.Conns = 1
		if err := g.fill(set, largePattern, largePerSecond*seconds); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return set, nil
}

// generator draws distinct instances: every request it returns has a
// canonical instance no earlier request of the set had.
type generator struct {
	seed int64
	seen map[cache.Key]bool
	next map[string]int64 // per family: next instance number to try
}

func newGenerator(seed int64) *generator {
	return &generator{seed: seed, seen: map[cache.Key]bool{}, next: map[string]int64{}}
}

func (g *generator) fill(set *requestSet, pattern []slot, count int) error {
	for i := 0; i < count; i++ {
		r, err := g.fresh(pattern[i%len(pattern)])
		if err != nil {
			return err
		}
		set.Reqs = append(set.Reqs, r)
	}
	return nil
}

// fresh returns the next instance of a family whose canonical encoding
// has not been generated before; families with few distinct instances
// (subsetsum's infeasible coin systems, boolplan's span-2 wall) simply
// skip their repeats.
func (g *generator) fresh(s slot) (*request, error) {
	for tries := 0; tries < 1000; tries++ {
		k := g.next[s.family]
		g.next[s.family] = k + 1
		// Disjoint instance-seed ranges per benchmark seed and family.
		iseed := g.seed*10_000_000 + familyIndex(s.family)*100_000 + k
		req, err := familyRequest(s.family, s.n, iseed)
		if err != nil {
			return nil, err
		}
		key, err := instanceKey(req)
		if err != nil {
			return nil, err
		}
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		req.ID = fmt.Sprintf("%s-n%d-%d", s.family, s.n, k)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		return &request{ID: req.ID, Family: s.family, N: s.n, Req: req, Body: body}, nil
	}
	return nil, fmt.Errorf("family %s at n=%d: no fresh instance in 1000 draws", s.family, s.n)
}

// instanceKey is the canonical identity of a request's instance. Two
// requests with different keys never share a server cache entry.
func instanceKey(req *wire.Request) (cache.Key, error) {
	canon, err := canonical(req)
	if err != nil {
		return cache.Key{}, err
	}
	return cache.NewHasher().Bytes("instance", canon).Sum(), nil
}

// canonical builds the request's instance and returns its canonical
// encoding.
func canonical(req *wire.Request) ([]byte, error) {
	var canon []byte
	var ok bool
	if wire.IsChainKind(req.Kind) {
		c, err := req.ChainInstance()
		if err != nil {
			return nil, err
		}
		canon, ok = c.Canonical()
	} else {
		in, err := req.Instance()
		if err != nil {
			return nil, err
		}
		canon, ok = in.Canonical()
	}
	if !ok {
		return nil, fmt.Errorf("%s instance has no canonical encoding", req.Kind)
	}
	return canon, nil
}

var familyNames = []string{"mlp", "mlptree", "dictionary", "polygon", "worstchain",
	"boolplan", "segls", "seglspath", "wis", "subsetsum"}

func familyIndex(name string) int64 {
	for i, f := range familyNames {
		if f == name {
			return int64(i)
		}
	}
	return int64(len(familyNames))
}

// familyRequest renders one instance of a dploadgen family as its wire
// request, with the same generators and parameters as cmd/dploadgen.
func familyRequest(family string, n int, seed int64) (*wire.Request, error) {
	switch family {
	case "mlptree", "seglspath":
		base := "mlp"
		if family == "seglspath" {
			base = "segls"
		}
		req, err := familyRequest(base, n, seed)
		if err != nil {
			return nil, err
		}
		req.ReturnSplits = true
		return req, nil
	case "mlp":
		rng := rand.New(rand.NewSource(seed))
		layers := 2 + rng.Intn(4)
		dims := make([]int, 0, n+1)
		dims = append(dims, 1, 8+rng.Intn(n))
		for l := 1; l < layers; l++ {
			dims = append(dims, 8+rng.Intn(n))
		}
		dims = append(dims, 1+rng.Intn(16))
		for len(dims) < n+1 {
			dims = append(dims, 8+rng.Intn(n))
		}
		return &wire.Request{Kind: wire.KindMatrixChain, Dims: dims[:n+1]}, nil
	case "dictionary":
		m := n - 1
		beta := workload.Zipf(m, 1.07, 10_000, seed)
		alpha := make([]int64, m+1)
		arng := rand.New(rand.NewSource(seed + 1))
		for i := range alpha {
			alpha[i] = 1 + arng.Int63n(200)
		}
		return &wire.Request{Kind: wire.KindOBST, Alpha: alpha, Beta: beta}, nil
	case "polygon":
		pts := problems.RandomConvexPolygon(n, 1000, seed)
		wpts := make([]wire.Point, len(pts))
		for i, p := range pts {
			wpts[i] = wire.Point{X: p.X, Y: p.Y}
		}
		return &wire.Request{Kind: wire.KindTriangulation, Points: wpts}, nil
	case "worstchain":
		return &wire.Request{Kind: wire.KindWorstChain, Dims: workload.WorstCaseChainDims(n, seed)}, nil
	case "boolplan":
		spans := workload.FeasibilitySpans(n, seed)
		forbidden := make([]wire.Span, len(spans))
		for i, s := range spans {
			forbidden[i] = wire.Span(s)
		}
		return &wire.Request{Kind: wire.KindBoolSplit, Count: n, Forbidden: forbidden}, nil
	case "segls":
		xs, ys := problems.RandomSeries(n, seed)
		pts := make([]wire.Point, len(xs))
		for i := range xs {
			pts[i] = wire.Point{X: xs[i], Y: ys[i]}
		}
		return &wire.Request{Kind: wire.KindSegLS, Points: pts, Penalty: 500 + (seed%7)*250}, nil
	case "wis":
		starts, ends, weights := problems.RandomJobs(n, seed)
		return &wire.Request{Kind: wire.KindWIS, Starts: starts, Ends: ends, Weights: weights}, nil
	case "subsetsum":
		target := int64(n)
		return &wire.Request{Kind: wire.KindSubsetSum, Target: target, Items: workload.CoinSystem(target, seed)}, nil
	}
	return nil, fmt.Errorf("unknown family %q", family)
}

// distinctRequests returns the set's distinct instances (warm-up and
// measured), each once, in first-seen order.
func (s *requestSet) distinctRequests() []*request {
	seen := map[string]bool{}
	var out []*request
	for _, list := range [][]*request{s.Warm, s.Reqs} {
		for _, r := range list {
			if !seen[r.ID] {
				seen[r.ID] = true
				out = append(out, r)
			}
		}
	}
	return out
}
