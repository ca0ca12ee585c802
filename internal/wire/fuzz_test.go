package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sublineardp/internal/cache"
	"sublineardp/internal/seq"
)

// FuzzCanonicalHash is the cache-correctness argument in executable
// form: for arbitrary instance parameters of every wire kind,
//
//  1. the canonicalization round-trips — an instance rebuilt from its
//     wire request canonicalises to the same bytes as the directly
//     constructed one, so a served request and the same instance built
//     in-process address the same cache entry;
//  2. hash equality implies solver-result equality — two instances with
//     equal canonical hashes produce bitwise-equal sequential tables,
//     so a cache hit can never serve a wrong solution;
//  3. any parameter perturbation changes the hash — neighbouring
//     requests cannot collide into each other's entries.
//
// Seeds cover the band-edge sizes the existing fuzz corpus pins
// (n = 16 is the exact D = 2*ceil(sqrt n) edge of FuzzBandedMatchesDense)
// and the degenerate sizes n = 1, 2.
func FuzzCanonicalHash(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))   // matrixchain n=1 (degenerate)
	f.Add(int64(2), uint8(1), uint8(1), uint8(3))   // obst, minimal keys
	f.Add(int64(3), uint8(2), uint8(14), uint8(7))  // triangulation at the n=16 band edge
	f.Add(int64(4), uint8(3), uint8(15), uint8(80)) // wtriangulation just past the edge
	f.Add(int64(5), uint8(0), uint8(14), uint8(60)) // matrixchain n=16 band edge
	f.Add(int64(-9), uint8(1), uint8(13), uint8(2)) // obst with tiny weights (ties everywhere)
	f.Fuzz(func(t *testing.T, seed int64, kindSel, nn, maxW uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn)%16 + 1
		w := int64(maxW) + 1
		req, mutated := buildRequests(rng, int(kindSel)%4, n, w)
		if err := req.Validate(0); err != nil {
			t.Fatalf("generated request invalid: %v", err)
		}

		in1, err := req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		// Independent rebuild from an encoded copy of the request: the
		// two construction paths a cache key must unify.
		clone := *req
		in2, err := clone.Instance()
		if err != nil {
			t.Fatal(err)
		}
		c1, ok1 := in1.Canonical()
		c2, ok2 := in2.Canonical()
		if !ok1 || !ok2 {
			t.Fatalf("kind %s not canonicalisable", req.Kind)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("kind %s: canonicalization did not round-trip", req.Kind)
		}
		k1 := cache.NewHasher().Bytes("instance", c1).Sum()
		k2 := cache.NewHasher().Bytes("instance", c2).Sum()
		if k1 != k2 {
			t.Fatal("equal canonical bytes hashed to different keys")
		}

		// Hash equality must imply result equality.
		t1 := seq.Solve(in1).Table
		t2 := seq.Solve(in2).Table
		if TableDigest(t1) != TableDigest(t2) {
			t.Fatalf("kind %s: equal hashes, different solver results", req.Kind)
		}

		// Materialisation changes representation, never identity.
		cm, ok := in1.Materialize().Canonical()
		if !ok || !bytes.Equal(cm, c1) {
			t.Fatalf("kind %s: Materialize changed the canonical encoding", req.Kind)
		}

		// A perturbed parameter must move the hash.
		if err := mutated.Validate(0); err != nil {
			t.Fatalf("mutated request invalid: %v", err)
		}
		inM, err := mutated.Instance()
		if err != nil {
			t.Fatal(err)
		}
		cM, _ := inM.Canonical()
		if bytes.Equal(cM, c1) {
			t.Fatalf("kind %s: parameter perturbation left the canonical encoding unchanged", req.Kind)
		}
	})
}

// buildRequests derives a valid request of the selected kind from the
// rng, plus a minimally perturbed sibling (one parameter bumped).
func buildRequests(rng *rand.Rand, kind, n int, maxW int64) (*Request, *Request) {
	pos := func() int64 { return 1 + rng.Int63n(maxW) }
	nonneg := func() int64 { return rng.Int63n(maxW + 1) }
	switch kind {
	case 0:
		dims := make([]int, n+1)
		for i := range dims {
			dims[i] = int(pos())
		}
		req := &Request{Kind: KindMatrixChain, Dims: dims}
		md := append([]int(nil), dims...)
		md[rng.Intn(len(md))]++
		return req, &Request{Kind: KindMatrixChain, Dims: md}
	case 1:
		m := n
		alpha := make([]int64, m+1)
		beta := make([]int64, m)
		for i := range alpha {
			alpha[i] = nonneg()
		}
		for i := range beta {
			beta[i] = nonneg()
		}
		req := &Request{Kind: KindOBST, Alpha: alpha, Beta: beta}
		mb := append([]int64(nil), beta...)
		mb[rng.Intn(len(mb))]++
		return req, &Request{Kind: KindOBST, Alpha: alpha, Beta: mb}
	case 2:
		// Points on a circle at sorted angles keep the polygon convex;
		// triangulation needs >= 3 vertices, i.e. n >= 2.
		if n < 2 {
			n = 2
		}
		pts := circlePoints(rng, n+1)
		req := &Request{Kind: KindTriangulation, Points: pts}
		mp := append([]Point(nil), pts...)
		mp[rng.Intn(len(mp))].X++
		return req, &Request{Kind: KindTriangulation, Points: mp}
	default:
		if n < 2 {
			n = 2
		}
		ws := make([]int64, n+1)
		for i := range ws {
			ws[i] = pos()
		}
		req := &Request{Kind: KindWTriangulation, Weights: ws}
		mw := append([]int64(nil), ws...)
		mw[rng.Intn(len(mw))]++
		return req, &Request{Kind: KindWTriangulation, Weights: mw}
	}
}

func circlePoints(rng *rand.Rand, count int) []Point {
	angles := make([]float64, count)
	for i := range angles {
		angles[i] = rng.Float64() * 6.283185307179586
	}
	for i := 1; i < len(angles); i++ {
		for k := i; k > 0 && angles[k] < angles[k-1]; k-- {
			angles[k], angles[k-1] = angles[k-1], angles[k]
		}
	}
	pts := make([]Point, count)
	for i, a := range angles {
		pts[i] = Point{X: int64(1000 * math.Cos(a)), Y: int64(1000 * math.Sin(a))}
	}
	return pts
}
