package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/serve"
	"sublineardp/internal/wire"
)

// TestConfigFromArgs pins the flag wiring: every serving knob reaches
// the Config field it claims to.
func TestConfigFromArgs(t *testing.T) {
	cfg, addr, err := configFromArgs([]string{
		"-addr", "127.0.0.1:9999",
		"-engine", "hlv-banded",
		"-maxn", "512",
		"-queue", "7",
		"-cache", "11",
		"-timeout", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:9999" {
		t.Errorf("addr = %q", addr)
	}
	want := serve.Config{
		Engine: "hlv-banded", MaxN: 512, MaxNHeavy: 64, MaxWorkers: 256,
		QueueDepth: 7, CacheCapacity: 11, RequestTimeout: 3 * time.Second,
	}
	if cfg != want {
		t.Errorf("cfg = %+v, want %+v", cfg, want)
	}
	if _, _, err := configFromArgs([]string{"-queue", "elephants"}); err == nil {
		t.Error("bad flag value accepted")
	}
}

// TestServerSmoke boots the exact stack main mounts and solves one
// request through it.
func TestServerSmoke(t *testing.T) {
	cfg, _, err := configFromArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(&wire.Request{
		Kind: wire.KindMatrixChain, Dims: []int{30, 35, 15, 5, 10, 20, 25}})
	resp, err := http.Post(hs.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || wr.Cost != 15125 {
		t.Fatalf("status %d cost %d, want 200 / 15125", resp.StatusCode, wr.Cost)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "dpserved_responses_ok_total 1") {
		t.Error("metrics did not record the solve")
	}
}

// parkEngine is the sequential engine, parked inside Solve until
// released: it holds a request in flight for as long as a test needs.
type parkEngine struct {
	name             string
	entered, release chan struct{}
}

func (e *parkEngine) Name() string { return e.name }

func (e *parkEngine) Solve(ctx context.Context, in *sublineardp.Instance, cfg *sublineardp.Config) (*sublineardp.Solution, error) {
	e.entered <- struct{}{}
	select {
	case <-e.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	inner, _ := sublineardp.LookupEngine(sublineardp.EngineSequential)
	return inner.Solve(ctx, in, cfg)
}

// parkEngineSeq gives each registration a fresh name: the registry is
// process-global with no Unregister, and -count=N reruns the test.
var parkEngineSeq atomic.Int64

// TestServeUntilAnswersInFlightRequests is the SIGTERM path: shutdown
// begins while a request is in the engine, and serveUntil returns only
// after that request has been answered with its 200.
func TestServeUntilAnswersInFlightRequests(t *testing.T) {
	eng := &parkEngine{
		name:    fmt.Sprintf("dpserved-park-%d", parkEngineSeq.Add(1)),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	if err := sublineardp.RegisterEngine(eng); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := configFromArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serveUntil(ctx, srv, ln, 10*time.Second) }()

	body, _ := json.Marshal(&wire.Request{Kind: wire.KindMatrixChain,
		Dims: []int{30, 35, 15, 5, 10, 20, 25}, Options: wire.Options{Engine: eng.name}})
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
			status <- 0
			return
		}
		defer resp.Body.Close()
		var wr wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || wr.Cost != 15125 {
			t.Errorf("in-flight response: cost %d, err %v", wr.Cost, err)
		}
		status <- resp.StatusCode
	}()

	release := sync.OnceFunc(func() { close(eng.release) })
	defer release()
	select {
	case <-eng.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the engine")
	}
	cancel() // what SIGTERM does in main
	select {
	case err := <-returned:
		t.Fatalf("serveUntil returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-returned; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	// serveUntil has returned, so the response must already be written:
	// a process exiting here would not cut it off.
	if m := srv.Metrics(); m.OK != 1 {
		t.Fatalf("serveUntil returned before the response was written: %+v", m)
	}
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight request got status %d, want 200", code)
	}
}
