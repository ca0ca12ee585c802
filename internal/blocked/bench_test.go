package blocked

import (
	"context"
	"fmt"
	"testing"

	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/workload"
)

// Package-level rails on the constructor form of F — the
// form a serving process actually receives instances in (dpbench's
// BENCH_core.json additionally measures the materialised form at
// n <= 1024; an O(n^3) F table would itself be the ceiling past that).
func benchmarkBlocked(b *testing.B, n, tile int) {
	in := problems.RandomMatrixChain(n, 50, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Solve(in, Options{TileSize: tile})
		_ = res.Table.Root()
	}
}

func BenchmarkBlockedN256(b *testing.B)  { benchmarkBlocked(b, 256, 0) }
func BenchmarkBlockedN1024(b *testing.B) { benchmarkBlocked(b, 1024, 0) }

// BenchmarkBlockedKYN2048 is the solve-large OBST: a Zipf dictionary
// at n=2048 on blocked-ky. Its bytes/op is the packed table plus the
// packed split matrix, 12·n(n+1)/2 bytes (see TestSolveBytesClosedForm).
func BenchmarkBlockedKYN2048(b *testing.B) {
	in := workload.DictionaryOBST(2047, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SolveKY(in, Options{})
		_ = res.Table.Root()
	}
}

func BenchmarkSequentialN1024(b *testing.B) {
	in := problems.RandomMatrixChain(1024, 50, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := seq.Solve(in)
		_ = res.Table.Root()
	}
}

// BenchmarkFamilyCandidates solves one n=512 instance of each interval
// family on blocked-pipe with one worker, with and without split
// recording, and reports the time per candidate next to the solve's
// Work (candidate evaluations plus the n leaf units). Work is a
// property of the tile geometry alone, so it is the same for every
// family; the ns/candidate spread between families is what their F
// costs inside the split kernel.
func BenchmarkFamilyCandidates(b *testing.B) {
	const n = 512
	dims := make([]int, n+1)
	weights := make([]int64, n+1)
	for t := range dims {
		dims[t] = 1 + (t*37)%100
		weights[t] = int64(dims[t])
	}
	families := []struct {
		name string
		in   *recurrence.Instance
	}{
		{"matrixchain", problems.RandomMatrixChain(n, 100, 1)},
		{"worstchain", problems.WorstCaseMatrixChain(dims)},
		{"wtriangulation", problems.WeightedTriangulation(weights)},
		{"triangulation", problems.Triangulation(problems.RandomConvexPolygon(n, 1000, 1))},
		{"obst", problems.RandomOBST(n-1, 50, 1)},
		{"convex", problems.RandomConvex(n, 9, 1)},
		{"boolsplit", problems.ForbiddenSplits(n, workload.FeasibilitySpans(n, 0))},
	}
	for _, f := range families {
		for _, record := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/splits=%v", f.name, record), func(b *testing.B) {
				opt := Options{Workers: 1, RecordSplits: record}
				var work int64
				for op := 0; op < b.N; op++ {
					res, err := SolvePipeCtx(context.Background(), f.in, opt)
					if err != nil {
						b.Fatal(err)
					}
					work = res.Acct.Work
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(work*int64(b.N)), "ns/candidate")
				b.ReportMetric(float64(work), "work")
			})
		}
	}
}
