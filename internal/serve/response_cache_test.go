package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sublineardp/internal/problems"
	"sublineardp/internal/wire"
)

// heapAfterGC returns the live heap once garbage, including the arenas'
// sync.Pool victim caches, has been collected.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCacheResidencyIsLinearInN pins what a cache entry costs: the
// rendered O(n) response, not the O(n^2) solver state behind it. K
// distinct n=512 interval solves and a few n=1024 segls solves all stay
// resident, yet the retained heap stays within a few MB; an entry that
// kept its solution would retain a 2 MB value table per interval
// request alone, over 64 MB here.
func TestCacheResidencyIsLinearInN(t *testing.T) {
	const (
		k      = 32
		n      = 512
		seglsK = 4
		seglsN = 1024
		limit  = 16 << 20
	)
	srv, hs := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(512))
	var reqs []*wire.Request
	for i := 0; i < k; i++ {
		req := &wire.Request{Kind: wire.KindOBST, Alpha: make([]int64, n), Beta: make([]int64, n-1)}
		for j := range req.Alpha {
			req.Alpha[j] = rng.Int63n(100)
		}
		for j := range req.Beta {
			req.Beta[j] = rng.Int63n(100)
		}
		// Reconstructions ride along: they are O(n) too.
		req.WantTree = i%4 == 1
		req.ReturnSplits = i%4 == 2
		reqs = append(reqs, req)
	}
	for i := 0; i < seglsK; i++ {
		xs, ys := problems.RandomSeries(seglsN, int64(i))
		req := &wire.Request{Kind: wire.KindSegLS, Penalty: 1000, ReturnSplits: i%2 == 1}
		for j := range xs {
			req.Points = append(req.Points, wire.Point{X: xs[j], Y: ys[j]})
		}
		reqs = append(reqs, req)
	}
	// Encode every body before the baseline so the request set itself
	// is not counted as growth.
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	before := heapAfterGC()
	for i, body := range bodies {
		resp, out := postRaw(t, hs.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	growth := heapAfterGC() - before
	runtime.KeepAlive(bodies)

	if m := srv.Metrics(); m.Solved != k+seglsK || m.CacheHits != 0 {
		t.Fatalf("metrics %+v, want %d distinct solves", m, k+seglsK)
	}
	if got := srv.lru.Len() + srv.clru.Len(); got != k+seglsK {
		t.Fatalf("%d resident entries, want all %d", got, k+seglsK)
	}
	t.Logf("retained heap after %d n=%d + %d segls n=%d solves: %.1f MB",
		k, n, seglsK, seglsN, float64(growth)/(1<<20))
	if growth > limit {
		t.Fatalf("cache retains %.1f MB for %d entries, want < %d MB: entries are holding O(n^2) solver state",
			float64(growth)/(1<<20), k+seglsK, limit>>20)
	}
}

// decodeResponse decodes a 200 body and pins its wire form: the bytes
// must be exactly json.Marshal's encoding of what they decode to, plus a
// newline — the field order, omissions and HTML-safe escaping the
// golden responses freeze — however the server assembled them.
func decodeResponse(t *testing.T, body []byte) wire.Response {
	t.Helper()
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatalf("response does not decode: %v: %s", err, body)
	}
	want, err := json.Marshal(&wr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatalf("response is not json.Marshal's encoding of itself:\n got  %s\n want %s", body, want)
	}
	return wr
}

// stripPerRequest re-encodes wr without the fields a cache hit or
// coalesced waiter sets per request, leaving the shared rendered body.
func stripPerRequest(t *testing.T, wr wire.Response) []byte {
	t.Helper()
	wr.Cached, wr.Coalesced, wr.ElapsedMicros = false, false, 0
	out, err := json.Marshal(&wr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheHitBodyEqualsMiss pins that a hit answers with exactly the
// body the miss rendered — for every golden wire request crossed with
// each rendering variant, from both cache tiers — and that the rendering
// bits are keyed: a plain solve never answers a later want_tree request
// for the same instance. The miss carries an id that needs escaping, so
// the spliced id must match json.Marshal's.
func TestCacheHitBodyEqualsMiss(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "request_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden requests found: %v", err)
	}
	variants := []struct {
		name                   string
		wantTree, returnSplits bool
	}{{"plain", false, false}, {"want_tree", true, false}, {"return_splits", false, true}}
	srv, hs := newTestServer(t, Config{})
	for _, path := range paths {
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(filepath.Base(path)+"/"+v.name, func(t *testing.T) {
				var req wire.Request
				if err := json.Unmarshal(golden, &req); err != nil {
					t.Fatal(err)
				}
				req.WantTree, req.ReturnSplits = v.wantTree, v.returnSplits
				req.ID = "<&>" + req.ID
				body, err := json.Marshal(&req)
				if err != nil {
					t.Fatal(err)
				}
				resp, miss := postRaw(t, hs.URL, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("miss: status %d: %s", resp.StatusCode, miss)
				}
				missResp := decodeResponse(t, miss)
				if missResp.Cached || missResp.Coalesced || missResp.ID != req.ID {
					t.Fatalf("miss cached=%v coalesced=%v id=%q: want a fresh solve echoing %q",
						missResp.Cached, missResp.Coalesced, missResp.ID, req.ID)
				}
				want := stripPerRequest(t, missResp)

				// The byte-identical body is an exact hit; the same
				// instance under another id is a canonical hit, which
				// must echo its own id.
				exactBefore := srv.Metrics().ExactHits
				resp, exact := postRaw(t, hs.URL, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("exact hit: status %d: %s", resp.StatusCode, exact)
				}
				if got := srv.Metrics().ExactHits; got != exactBefore+1 {
					t.Fatalf("repeating the body moved exact hits %d -> %d, want an exact hit", exactBefore, got)
				}
				id := req.ID
				req.ID = "hit-" + id
				resp, canon := postSolve(t, hs.URL, &req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("canonical hit: status %d: %s", resp.StatusCode, canon)
				}
				if got := srv.Metrics().ExactHits; got != exactBefore+1 {
					t.Fatalf("another id moved exact hits to %d, want a canonical hit", got)
				}
				for _, hit := range []struct {
					name string
					raw  []byte
					id   string
				}{{"exact", exact, id}, {"canonical", canon, req.ID}} {
					hitResp := decodeResponse(t, hit.raw)
					if !hitResp.Cached || hitResp.Coalesced {
						t.Fatalf("%s hit cached=%v coalesced=%v, want cached", hit.name, hitResp.Cached, hitResp.Coalesced)
					}
					if hitResp.ID != hit.id {
						t.Fatalf("%s hit echoes id %q, want its own %q", hit.name, hitResp.ID, hit.id)
					}
					hitResp.ID = id
					if got := stripPerRequest(t, hitResp); !bytes.Equal(got, want) {
						t.Fatalf("%s hit body differs from miss body:\n hit  %s\n miss %s", hit.name, got, want)
					}
				}
			})
		}
	}

	t.Run("plain-then-want_tree", func(t *testing.T) {
		req := &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{7, 3, 9, 4, 8, 2, 6, 5}}
		for _, wantTree := range []bool{false, true} {
			req.WantTree = wantTree
			resp, body := postSolve(t, hs.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			wr := decodeResponse(t, body)
			if wr.Cached {
				t.Fatalf("want_tree=%v answered from the cache of its twin", wantTree)
			}
			if got := wr.Tree != ""; got != wantTree {
				t.Fatalf("want_tree=%v returned tree %q", wantTree, wr.Tree)
			}
		}
	})
}
