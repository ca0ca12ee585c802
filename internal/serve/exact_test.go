package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sublineardp/internal/wire"
)

// postExpect posts body and fails unless the answer has the wanted
// status; it returns the response bytes.
func postExpect(t *testing.T, url string, body []byte, status int) []byte {
	t.Helper()
	resp, out := postRaw(t, url, body)
	if resp.StatusCode != status {
		t.Fatalf("status %d (%s), want %d", resp.StatusCode, out, status)
	}
	return out
}

// Every request bit that changes the rendered body splits both tiers:
// two bodies that differ only in want_tree, or only in return_splits,
// never answer for each other, for interval and chain kinds alike. Each
// body is solved once and then answered by the exact tier.
func TestRenderBitsNeverShareAnEntry(t *testing.T) {
	kinds := map[string]string{
		"interval": `"kind":"matrixchain","dims":[7,3,9,4,8,2,6,5]`,
		"chain":    `"kind":"segls","points":[{"x":0,"y":0},{"x":1,"y":5},{"x":2,"y":1},{"x":3,"y":8},{"x":4,"y":2}],"penalty":3`,
	}
	for name, fields := range kinds {
		for _, bit := range []string{"want_tree", "return_splits"} {
			t.Run(name+"/"+bit, func(t *testing.T) {
				srv, hs := newTestServer(t, Config{})
				plain := []byte("{" + fields + "}")
				set := []byte("{" + fields + `,"` + bit + `":true}`)
				var first [2]wire.Response
				for round := range 2 {
					for i, body := range [][]byte{plain, set} {
						before := srv.Metrics()
						wr := decodeResponse(t, postExpect(t, hs.URL, body, http.StatusOK))
						after := srv.Metrics()
						if round == 0 {
							if wr.Cached || after.Solved != before.Solved+1 {
								t.Fatalf("body %s: cached=%v, metrics %+v: want a fresh solve", body, wr.Cached, after)
							}
							first[i] = wr
							continue
						}
						if !wr.Cached || after.ExactHits != before.ExactHits+1 {
							t.Fatalf("repeated body %s: cached=%v, metrics %+v: want an exact hit", body, wr.Cached, after)
						}
						if got, want := stripPerRequest(t, wr), stripPerRequest(t, first[i]); !bytes.Equal(got, want) {
							t.Fatalf("exact hit for %s answers another body:\n got  %s\n want %s", body, got, want)
						}
					}
				}
				// The bit is visible in the body, so the two entries differ.
				if bytes.Equal(stripPerRequest(t, first[0]), stripPerRequest(t, first[1])) {
					t.Fatalf("%s=true renders the same body as its plain twin: %s", bit, stripPerRequest(t, first[0]))
				}
			})
		}
	}
}

// A body that differs from an answered one only in its id, or only in
// its JSON key order, is a canonical hit, not an exact one: it is
// decoded and keyed by its instance, carries its own id, and its bytes
// equal the first answer's apart from the per-request fields.
func TestCanonicalHitAcrossSpellings(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	bodies := []struct {
		name, body, id string
	}{
		{"first", `{"id":"a","kind":"obst","alpha":[1,2,1,0,1],"beta":[4,2,6,3],"return_splits":true}`, "a"},
		{"id", `{"id":"b","kind":"obst","alpha":[1,2,1,0,1],"beta":[4,2,6,3],"return_splits":true}`, "b"},
		{"no-id", `{"kind":"obst","alpha":[1,2,1,0,1],"beta":[4,2,6,3],"return_splits":true}`, ""},
		{"reordered", `{"return_splits":true,"beta":[4,2,6,3],"alpha":[1,2,1,0,1],"kind":"obst","id":"a"}`, "a"},
		{"spaced", "{ \"id\": \"a\",\n \"kind\": \"obst\", \"alpha\": [1, 2, 1, 0, 1], \"beta\": [4, 2, 6, 3], \"return_splits\": true }", "a"},
	}
	var want []byte
	for i, b := range bodies {
		wr := decodeResponse(t, postExpect(t, hs.URL, []byte(b.body), http.StatusOK))
		m := srv.Metrics()
		if wr.ID != b.id {
			t.Fatalf("%s: echoes id %q, want %q", b.name, wr.ID, b.id)
		}
		wr.ID = ""
		if i == 0 {
			want = stripPerRequest(t, wr)
			continue
		}
		if !wr.Cached || m.CacheHits != int64(i) || m.ExactHits != 0 || m.Solved != 1 {
			t.Fatalf("%s: cached=%v, metrics %+v: want a canonical hit", b.name, wr.Cached, m)
		}
		if got := stripPerRequest(t, wr); !bytes.Equal(got, want) {
			t.Fatalf("%s: canonical hit differs from the first answer:\n got  %s\n want %s", b.name, got, want)
		}
	}
}

// errorRequests maps each 400 golden under internal/wire/testdata to a
// request body the server answers with it.
var errorRequests = map[string]string{
	"error_bad_request.json":                  `{"kind":"obst","alpha":[1,2],"beta":[1,2,3,4]}`,
	"error_cost_overflow_matrixchain.json":    `{"kind":"matrixchain","dims":[3000000,3000000,3000000,3000000]}`,
	"error_cost_overflow_wtriangulation.json": `{"kind":"wtriangulation","weights":[3000000,3000000,3000000]}`,
	"error_cost_overflow_obst.json":           `{"kind":"obst","alpha":[4000000000000000000,4000000000000000000],"beta":[4000000000000000000]}`,
	"error_cost_overflow_wis.json":            `{"kind":"wis","starts":[0,10,20],"ends":[5,15,25],"weights":[4000000000000000000,4000000000000000000,4000000000000000000]}`,
	"error_cost_overflow_triangulation.json":  `{"kind":"triangulation","points":[{"x":0,"y":0},{"x":4000000000000000000,"y":0},{"x":4000000000000000000,"y":4000000000000000000},{"x":0,"y":4000000000000000000}]}`,
	"error_cost_overflow_segls.json":          `{"kind":"segls","points":[{"x":0,"y":0},{"x":1,"y":3000000000},{"x":2,"y":-3000000000},{"x":3,"y":3000000000}],"penalty":4000000000000000000}`,
}

// Only a body answered with a 200 enters the exact tier: every 400
// golden's body, an oversized body, a shed body and a timed-out body is
// answered the same way, through the same counter, when sent again.
func TestOnlyA200EntersTheExactTier(t *testing.T) {
	t.Run("400", func(t *testing.T) {
		goldens, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "error_*.json"))
		if err != nil || len(goldens) == 0 {
			t.Fatalf("no error goldens found: %v", err)
		}
		srv, hs := newTestServer(t, Config{})
		sent := int64(0)
		for _, path := range goldens {
			body, ok := errorRequests[filepath.Base(path)]
			if !ok {
				t.Fatalf("no request body answers golden %s: add one to errorRequests", path)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want wire.ErrorBody
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				var got wire.ErrorBody
				if err := json.Unmarshal(postExpect(t, hs.URL, []byte(body), http.StatusBadRequest), &got); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: error body %+v, golden %s says %+v", body, got, path, want)
				}
				sent++
				if m := srv.Metrics(); m.BadRequests != sent || m.OK != 0 {
					t.Fatalf("%s: metrics %+v, want %d bad requests", body, m, sent)
				}
			}
		}
		// A body over maxBodyBytes is rejected before it is hashed.
		big := []byte(`{"id":"` + strings.Repeat("x", maxBodyBytes) + `","kind":"matrixchain","dims":[2,3,4]}`)
		for range 2 {
			postExpect(t, hs.URL, big, http.StatusBadRequest)
			sent++
			if m := srv.Metrics(); m.BadRequests != sent || m.OK != 0 {
				t.Fatalf("oversized body: metrics %+v, want %d bad requests", m, sent)
			}
		}
	})

	t.Run("503", func(t *testing.T) {
		eng := registerBlockEngine(t, "exact-shed")
		srv, hs := newTestServer(t, Config{QueueDepth: 1})
		// Runs before the server closes, so a failed check never leaves a
		// slot holder parked until its deadline.
		t.Cleanup(func() { close(eng.release) })
		body := []byte(`{"kind":"matrixchain","dims":[5,6,7,8]}`)
		// hold parks one request in the engine, so the only admission
		// slot is taken until the returned func releases it.
		holds := 0
		hold := func() func() {
			holds++
			holder := &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4 + holds},
				Options: wire.Options{Engine: eng.name}}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				postSolve(t, hs.URL, holder)
			}()
			select {
			case <-eng.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the slot holder never reached the engine")
			}
			return func() {
				eng.release <- struct{}{}
				wg.Wait()
				// The client can read its answer before the handler
				// returns the slot.
				for srv.Metrics().QueueDepth != 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}
		unhold := hold()
		for i := range 2 {
			postExpect(t, hs.URL, body, http.StatusServiceUnavailable)
			if m := srv.Metrics(); m.RejectedFull != int64(i+1) {
				t.Fatalf("metrics %+v, want %d rejections", m, i+1)
			}
		}
		unhold()
		// Shed twice, the body is new to the server: solved, then an
		// exact hit.
		if wr := decodeResponse(t, postExpect(t, hs.URL, body, http.StatusOK)); wr.Cached {
			t.Fatal("a body shed with 503 was answered from the cache")
		}
		decodeResponse(t, postExpect(t, hs.URL, body, http.StatusOK))
		if m := srv.Metrics(); m.Solved != 2 || m.ExactHits != 1 {
			t.Fatalf("metrics %+v, want the body solved once and then an exact hit", m)
		}
		// An exact hit takes an admission slot like any request: shed on
		// a full queue, an exact hit again once the slot is free.
		unhold = hold()
		postExpect(t, hs.URL, body, http.StatusServiceUnavailable)
		unhold()
		if wr := decodeResponse(t, postExpect(t, hs.URL, body, http.StatusOK)); !wr.Cached {
			t.Fatal("the answered body was not a hit after a 503")
		}
		if m := srv.Metrics(); m.RejectedFull != 3 || m.ExactHits != 2 {
			t.Fatalf("metrics %+v, want 3 rejections and 2 exact hits", m)
		}
	})

	t.Run("504", func(t *testing.T) {
		srv, hs := newTestServer(t, Config{RequestTimeout: time.Millisecond})
		// A banded solve of a big instance cannot finish in 1ms.
		dims := make([]int, 301)
		for i := range dims {
			dims[i] = (i*37)%97 + 3
		}
		body, err := json.Marshal(&wire.Request{Kind: wire.KindMatrixChain, Dims: dims,
			Options: wire.Options{Engine: "hlv-banded"}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			postExpect(t, hs.URL, body, http.StatusGatewayTimeout)
			if m := srv.Metrics(); m.Timeouts != int64(i+1) || m.OK != 0 {
				t.Fatalf("metrics %+v, want %d timeouts", m, i+1)
			}
		}
	})
}

// metricValue reads one counter from a /metrics exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metrics exposition has no %s", name)
	return 0
}

// scrapeMetrics fetches the /metrics exposition.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// Concurrent identical bodies and id variants of one instance race the
// exact tier's fill against its hits and the canonical tier's single
// flight: every answer carries its own id over the same shared bytes,
// and the /metrics identities hold.
func TestExactTierConcurrentBodies(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	const (
		clients = 8
		rounds  = 12
		ids     = 3
	)
	rng := rand.New(rand.NewSource(39))
	dims := make([]int, 41)
	for i := range dims {
		dims[i] = rng.Intn(40) + 2
	}
	bodies := make([][]byte, ids)
	for i := range bodies {
		b, err := json.Marshal(&wire.Request{ID: fmt.Sprintf("<c%d>", i), Kind: wire.KindMatrixChain, Dims: dims, ReturnSplits: true})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	type answer struct {
		raw []byte
		id  string
	}
	answers := make(chan answer, clients*rounds)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (c + r) % ids
				resp, err := http.Post(hs.URL+"/solve", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d (%s): %v", resp.StatusCode, raw, err)
					return
				}
				answers <- answer{raw, fmt.Sprintf("<c%d>", i)}
			}
		}()
	}
	wg.Wait()
	close(answers)
	var first []byte
	for a := range answers {
		wr := decodeResponse(t, a.raw)
		if wr.ID != a.id {
			t.Fatalf("answer echoes id %q, want %q", wr.ID, a.id)
		}
		wr.ID = ""
		if b := stripPerRequest(t, wr); first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("answers differ beyond their per-request fields:\n %s\n %s", b, first)
		}
	}
	m := srv.Metrics()
	if m.Requests != clients*rounds || m.OK != m.Requests {
		t.Fatalf("metrics %+v, want %d ok requests", m, clients*rounds)
	}
	if m.CacheHits+m.Coalesced+m.Solved != m.OK || m.ExactHits > m.CacheHits || m.Solved != 1 {
		t.Fatalf("counter identity broken: %+v", m)
	}
	text := scrapeMetrics(t, hs.URL)
	if exact, hits := metricValue(t, text, "dpserved_cache_exact_hits_total"), metricValue(t, text, "dpserved_cache_hits_total"); exact != m.ExactHits || hits != m.CacheHits {
		t.Fatalf("/metrics exact %d hits %d, snapshot %+v", exact, hits, m)
	}
}

// discardWriter is a reusable ResponseWriter that keeps nothing, so the
// handler benchmarks measure the handler rather than a recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// BenchmarkSolveHandler prices the /solve handler on each path a body
// can take: an exact hit (the byte-identical body answered before), a
// canonical hit (the same instance under a new id on every iteration)
// and an n=48 miss, which solves a new instance on every iteration.
func BenchmarkSolveHandler(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	instance := func() []int {
		dims := make([]int, 49)
		for i := range dims {
			dims[i] = rng.Intn(60) + 2
		}
		return dims
	}
	encode := func(req *wire.Request) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	run := func(b *testing.B, bodies func(i int) []byte, warm []byte) {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		w := &discardWriter{h: http.Header{}}
		body := &bodyReader{}
		r := httptest.NewRequest(http.MethodPost, "/solve", body)
		serve := func(raw []byte) {
			body.Reset(raw)
			r.ContentLength = int64(len(raw))
			w.code = http.StatusOK
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
		if warm != nil {
			serve(warm)
			serve(warm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(bodies(i))
		}
	}
	hot := &wire.Request{ID: "bench", Kind: wire.KindMatrixChain, Dims: instance()}
	warm := encode(hot)
	b.Run("exact_hit", func(b *testing.B) {
		run(b, func(int) []byte { return warm }, warm)
	})
	b.Run("canonical_hit", func(b *testing.B) {
		// A fresh id per iteration, so no body is ever an exact hit.
		bodies := make([][]byte, b.N)
		for i := range bodies {
			other := *hot
			other.ID = "bench-" + strconv.Itoa(i)
			bodies[i] = encode(&other)
		}
		run(b, func(i int) []byte { return bodies[i] }, warm)
	})
	b.Run("miss_n48", func(b *testing.B) {
		bodies := make([][]byte, b.N)
		for i := range bodies {
			bodies[i] = encode(&wire.Request{Kind: wire.KindMatrixChain, Dims: instance()})
		}
		run(b, func(i int) []byte { return bodies[i] }, nil)
	})
}
