package blocked

import (
	"testing"

	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
	"sublineardp/internal/workload"
)

// Package-level rails on the constructor closure/FPanel path — the
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
