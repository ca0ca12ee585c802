package blocked

import (
	"runtime"
	"testing"

	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/workload"
)

// The recorded split matrix is packed like the table: one slot per cell
// i < j after the pad, Splits[Table.Rows().Org(i)+j] is split(i,j), and
// Split reads -1 for j <= i. Checked on a Knuth–Yao solve of a convex
// dictionary OBST and on a recorded pipelined solve of a matrix chain,
// both across tile boundaries, against the sequential splits.
func TestPackedSplitsMatchSequential(t *testing.T) {
	cases := []struct {
		name string
		in   *recurrence.Instance
		run  func(*recurrence.Instance) *Result
	}{
		{"ky", workload.DictionaryOBST(64, 3), func(in *recurrence.Instance) *Result {
			return SolveKY(in, Options{TileSize: 16})
		}},
		{"pipe", problems.RandomMatrixChain(65, 50, 4), func(in *recurrence.Instance) *Result {
			return SolvePipe(in, Options{TileSize: 16, RecordSplits: true})
		}},
	}
	for _, tc := range cases {
		want, got := seq.Solve(tc.in), tc.run(tc.in)
		if !bitwiseEqual(got.Table, want.Table) {
			t.Fatalf("%s: table differs from sequential: %v", tc.name, got.Table.Diff(want.Table, 3))
		}
		if len(got.Splits) != len(got.Table.Data()) || got.Splits[0] != -1 {
			t.Fatalf("%s: split matrix has %d slots (pad %d), want %d and -1",
				tc.name, len(got.Splits), got.Splits[0], len(got.Table.Data()))
		}
		rows := got.Table.Rows()
		for i := 0; i <= tc.in.N; i++ {
			for j := 0; j <= tc.in.N; j++ {
				if j <= i {
					if s := got.Split(i, j); s != -1 {
						t.Fatalf("%s: Split(%d,%d) = %d below the diagonal, want -1", tc.name, i, j, s)
					}
					continue
				}
				exp := want.Split(i, j)
				if s := int(got.Splits[rows.Org(i)+j]); s != exp || got.Split(i, j) != exp {
					t.Fatalf("%s: split(%d,%d) = %d (Split %d), sequential recorded %d",
						tc.name, i, j, s, got.Split(i, j), exp)
				}
			}
		}
	}
}

// solveBytes is the closed-form heap estimate of one tile solve at n:
// the packed cost table at 8 bytes a cell plus, when recording (always
// for Knuth–Yao), the packed split matrix at 4 bytes a cell, over the
// n(n+1)/2 cells i < j.
func solveBytes(n int, record bool) float64 {
	perCell := 8.0
	if record {
		perCell += 4
	}
	return perCell * float64(n) * float64(n+1) / 2
}

// One tile solve allocates its packed table (and split matrix), plus at
// most a megabyte of graph and scratch: 1.1× the closed form + 1 MB.
func TestSolveBytesClosedForm(t *testing.T) {
	const n = 1024
	measure := func(solve func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	obst := workload.DictionaryOBST(n-1, 1)
	chain := problems.RandomMatrixChain(n, 50, 1)
	for _, tc := range []struct {
		name   string
		record bool
		solve  func()
	}{
		{"blocked-ky", true, func() { SolveKY(obst, Options{}) }},
		{"blocked-pipe", false, func() { SolvePipe(chain, Options{}) }},
	} {
		got, limit := measure(tc.solve), 1.1*solveBytes(n, tc.record)+1<<20
		if got > limit {
			t.Errorf("%s n=%d: allocated %.0f bytes, closed form allows %.0f", tc.name, n, got, limit)
		}
		t.Logf("%s n=%d: %.0f bytes, closed form %.0f", tc.name, n, got, solveBytes(n, tc.record))
	}
}
