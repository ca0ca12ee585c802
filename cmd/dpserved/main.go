// Command dpserved serves the Solver API over HTTP/JSON: a caching,
// single-flight front end over the pooled tile-parallel runtime.
//
//	dpserved -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/solve -d '{
//	        "kind": "matrixchain",
//	        "dims": [30, 35, 15, 5, 10, 20, 25],
//	        "want_tree": true}'
//	curl -s localhost:8080/metrics | grep dpserved_
//
// Endpoints: POST /solve (wire.Request -> wire.Response), GET /healthz,
// GET /metrics (Prometheus text format). Request and response formats
// are defined (and golden-tested) in internal/wire.
//
// The serving knobs mirror the paper's cost model the way DESIGN.md
// describes: -queue bounds admitted work (shed beyond it), and -pool
// sizes the one worker pool every solve dispatches onto.
//
// SIGINT or SIGTERM shuts the server down gracefully: requests in flight
// get up to 10s to be answered before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sublineardp"
	"sublineardp/internal/serve"
)

func main() {
	cfg, addr, err := configFromArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpserved: %v\n", err)
		os.Exit(2)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpserved: %v\n", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("dpserved: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("dpserved: listening on %s (engine=%s queue=%d cache=%d maxn=%d semirings=%v)",
		addr, cfg.Engine, cfg.QueueDepth, cfg.CacheCapacity, cfg.MaxN, sublineardp.Semirings())
	if err := serveUntil(ctx, srv, ln, shutdownGrace); err != nil {
		log.Fatalf("dpserved: %v", err)
	}
}

// shutdownGrace bounds how long a shutdown waits for in-flight requests.
const shutdownGrace = 10 * time.Second

// serveUntil serves srv on ln until ctx is cancelled or serving fails,
// then shuts down gracefully: it stops accepting connections and waits
// up to grace for in-flight requests to be answered. Every request is
// answered inside its handler, so it returns only once all of that is
// done, and a caller that exits afterwards never cuts off a response.
func serveUntil(ctx context.Context, srv *serve.Server, ln net.Listener, grace time.Duration) error {
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("dpserved: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := hs.Shutdown(sctx)
	<-served // http.ErrServerClosed, returned as soon as Shutdown begins
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// configFromArgs parses flags into the serving Config, split out of main
// so the smoke test covers the actual flag wiring.
func configFromArgs(args []string) (serve.Config, string, error) {
	fs := flag.NewFlagSet("dpserved", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		engine   = fs.String("engine", sublineardp.EngineAuto, "default engine for requests that name none")
		maxN     = fs.Int("maxn", 4096, "largest accepted instance size (negative = unbounded)")
		maxNH    = fs.Int("maxn-heavy", 64, "size limit for the O(n^4)-memory engines hlv-dense/rytter")
		maxW     = fs.Int("max-workers", 256, "largest accepted per-request workers option")
		queue    = fs.Int("queue", 256, "admission queue depth (further requests are shed with 503)")
		cacheCap = fs.Int("cache", 4096, "rendered-response cache entries (negative disables caching)")
		timeout  = fs.Duration("timeout", 30*time.Second, "server-side deadline per request")
		poolW    = fs.Int("pool", 0, "worker pool width (0 = the process-wide default pool)")
	)
	if err := fs.Parse(args); err != nil {
		return serve.Config{}, "", err
	}
	cfg := serve.Config{
		Engine:         *engine,
		MaxN:           *maxN,
		MaxNHeavy:      *maxNH,
		MaxWorkers:     *maxW,
		QueueDepth:     *queue,
		CacheCapacity:  *cacheCap,
		RequestTimeout: *timeout,
	}
	if *poolW > 0 {
		cfg.Pool = sublineardp.NewPool(*poolW)
	}
	return cfg, *addr, nil
}
