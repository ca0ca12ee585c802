// Batch serving: fan a mixed stream of matrix-chain, OBST and
// triangulation requests across the worker-pool scheduler, letting the
// "auto" engine route each instance by size — small ones to the
// sequential scan, large ones to the pipelined blocked engine, or to the
// Knuth-Yao pruned one for the convex OBSTs — under one deadline, the
// shape of a production request handler.
//
// Run with:
//
//	go run ./examples/batch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sublineardp"
	"sublineardp/internal/problems"
)

func main() {
	// A burst of requests of very different sizes, as a service would see.
	var batch []*sublineardp.Instance
	for i, n := range []int{8, 120, 24, 96, 12, 80, 40, 6, 150, 30} {
		switch i % 3 {
		case 0:
			batch = append(batch, problems.RandomMatrixChain(n, 100, int64(i)))
		case 1:
			batch = append(batch, problems.RandomOBST(n, 50, int64(i)))
		default:
			batch = append(batch, problems.Triangulation(problems.RandomConvexPolygon(n, 1000, int64(i))))
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	start := time.Now()
	sols, err := sublineardp.SolveBatch(ctx, batch, sublineardp.WithConcurrency(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved %d instances in %s (4-way concurrency)\n\n", len(sols), time.Since(start).Round(time.Millisecond))

	fmt.Printf("%-28s %6s %-12s %10s\n", "instance", "n", "engine", "optimum")
	for i, sol := range sols {
		fmt.Printf("%-28s %6d %-12s %10d\n", batch[i].Name, batch[i].N, sol.Engine, sol.Cost())
	}

	// Order stability: slot i always answers request i, so responses can
	// be matched back to callers by index alone.
	for i, sol := range sols {
		if sol.N() != batch[i].N {
			log.Fatalf("slot %d answered the wrong request", i)
		}
	}
	fmt.Println("\nall slots matched their requests in order")
}
