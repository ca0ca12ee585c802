package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sublineardp"
	"sublineardp/internal/problems"
	"sublineardp/internal/seq"
)

// -update refreshes the golden fixtures. The fixtures freeze the wire
// format: a diff here is an API break and must be deliberate.
var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// goldenCases are the frozen request/response exemplars, one per kind
// plus the serving-specific response variants.
func goldenCases() map[string]any {
	return map[string]any{
		"request_matrixchain.json": &Request{
			ID:   "req-1",
			Kind: KindMatrixChain,
			Dims: []int{30, 35, 15, 5, 10, 20, 25},
			Options: Options{
				Engine: "hlv-banded", Termination: "w-stable", BandRadius: 6,
			},
			WantTree: true,
		},
		"request_obst.json": &Request{
			ID:    "req-2",
			Kind:  KindOBST,
			Alpha: []int64{1, 2, 1, 0, 1},
			Beta:  []int64{4, 2, 6, 3},
		},
		"request_triangulation.json": &Request{
			Kind: KindTriangulation,
			Points: []Point{
				{X: 1000, Y: 0}, {X: 309, Y: 951}, {X: -809, Y: 588},
				{X: -809, Y: -588}, {X: 309, Y: -951},
			},
			Options: Options{Engine: "sequential"},
		},
		"request_wtriangulation.json": &Request{
			Kind:    KindWTriangulation,
			Weights: []int64{30, 35, 15, 5, 10, 20, 25},
			Options: Options{Mode: "chaotic", MaxIterations: 12},
		},
		"response_solved.json": &Response{
			ID: "req-1", Kind: KindMatrixChain, N: 6, Engine: "hlv-banded",
			Cost: 15125, TableDigest: "6a0e2e343d2a1c47a2b95245b1c0ab05e5b35058ee3b93dcbeb18f9d7154f4bc",
			Iterations: 5, StoppedEarly: true, BandRadius: 6,
			Tree: "((1 . (2 . 3)) . ((4 . 5) . 6))", ElapsedMicros: 1234,
		},
		"response_cached.json": &Response{
			ID: "req-9", Kind: KindOBST, N: 5, Engine: "sequential",
			Cost: 42, TableDigest: "1f2a7c3fcdd9d0b57c2b578b0ba4eddc66c2a31ba4fa40ad0cd1d14c9b4eeb95",
			Cached: true, ElapsedMicros: 11,
		},
		"response_coalesced.json": &Response{
			Kind: KindMatrixChain, N: 64, Engine: "hlv-banded",
			Cost: 99481, TableDigest: "0ab4d19933b09c9fe36a9287ba1cbd02e85c1c0b06158be64b2b0207ec2356f8",
			Iterations: 9, Coalesced: true, ElapsedMicros: 52017,
		},
		"request_worstchain.json": &Request{
			ID:   "req-w1",
			Kind: KindWorstChain,
			Dims: []int{30, 35, 15, 5, 10, 20, 25},
		},
		"request_boolsplit.json": &Request{
			ID:        "req-b1",
			Kind:      KindBoolSplit,
			Count:     6,
			Forbidden: []Span{{0, 3}, {2, 5}},
			Options:   Options{Engine: "hlv-banded"},
		},
		"request_semiring_override.json": &Request{
			Kind:    KindMatrixChain,
			Dims:    []int{2, 3, 4, 5},
			Options: Options{Semiring: "max-plus"},
		},
		"response_maxplus.json": &Response{
			ID: "req-w1", Kind: KindWorstChain, N: 6, Engine: "hlv-banded",
			Cost: 58000, TableDigest: "9c11361ff2a3fb415ad88d8f4329331ea0f1c4ab5a8b1a4ca41d1f84b9e01a02",
			Iterations: 5, Algebra: "max-plus", ElapsedMicros: 321,
		},
		"response_boolplan.json": &Response{
			ID: "req-b1", Kind: KindBoolSplit, N: 6, Engine: "sequential",
			Cost: 1, TableDigest: "5511361ff2a3fb415ad88d8f4329331ea0f1c4ab5a8b1a4ca41d1f84b9e01a02",
			Algebra: "bool-plan", Cached: true, ElapsedMicros: 17,
		},
		"error_bad_request.json": &ErrorBody{
			Error: `wire: obst needs len(alpha) == len(beta)+1, got 2 and 4`, Code: 400,
		},
		"error_cost_overflow_matrixchain.json": &ErrorBody{
			Error: `wire: matrixchain dims too large: the worst-case total cost must stay below 2305843009213693951`, Code: 400,
		},
		"error_cost_overflow_wtriangulation.json": &ErrorBody{
			Error: `wire: wtriangulation weights too large: the worst-case total cost must stay below 2305843009213693951`, Code: 400,
		},
		"error_cost_overflow_obst.json": &ErrorBody{
			Error: `wire: obst alpha/beta weights too large: the worst-case total cost must stay below 2305843009213693951`, Code: 400,
		},
		"error_cost_overflow_wis.json": &ErrorBody{
			Error: `wire: wis weights too large: the worst-case total cost must stay below 2305843009213693951`, Code: 400,
		},
		"error_cost_overflow_triangulation.json": &ErrorBody{
			Error: `wire: triangulation coordinates too large: the worst-case total cost must stay below 2305843009213693951`, Code: 400,
		},
		"error_cost_overflow_segls.json": &ErrorBody{
			Error: `wire: segls ys/penalty too large: the worst-case total cost must stay below 2305843009213693951`, Code: 400,
		},
		"request_segls.json": &Request{
			ID:   "req-c1",
			Kind: KindSegLS,
			Points: []Point{
				{X: 0, Y: 0}, {X: 1, Y: 10}, {X: 2, Y: 20}, {X: 3, Y: 18}, {X: 4, Y: 16},
			},
			Penalty:  2500,
			Options:  Options{Engine: "llp", Workers: 4},
			WantTree: true,
		},
		"request_wis.json": &Request{
			ID:      "req-c2",
			Kind:    KindWIS,
			Starts:  []int64{1, 3, 0, 5, 3, 5, 6, 8},
			Ends:    []int64{4, 5, 6, 7, 9, 9, 10, 11},
			Weights: []int64{3, 2, 5, 2, 4, 6, 2, 4},
		},
		"request_subsetsum.json": &Request{
			ID:      "req-c3",
			Kind:    KindSubsetSum,
			Target:  30,
			Items:   []int64{4, 9, 13},
			Options: Options{Engine: "sequential"},
		},
		"response_chain.json": &Response{
			ID: "req-c1", Kind: KindSegLS, N: 5, Engine: "llp",
			Cost: 7500, TableDigest: "3c0e2e343d2a1c47a2b95245b1c0ab05e5b35058ee3b93dcbeb18f9d7154f4bc",
			Iterations: 2, Tree: "0 2 5", ElapsedMicros: 87,
		},
		"request_chain_window.json": &Request{
			ID:          "req-c4",
			Kind:        KindWIS,
			Starts:      []int64{1, 3, 0, 5, 3, 5, 6, 8},
			Ends:        []int64{4, 5, 6, 7, 9, 9, 10, 11},
			Weights:     []int64{3, 2, 5, 2, 4, 6, 2, 4},
			ChainWindow: 3,
		},
		"request_return_splits.json": &Request{
			ID:           "req-r1",
			Kind:         KindMatrixChain,
			Dims:         []int{30, 35, 15, 5, 10, 20, 25},
			Options:      Options{Engine: "blocked"},
			ReturnSplits: true,
		},
		"response_reconstruction.json": &Response{
			ID: "req-r1", Kind: KindMatrixChain, N: 6, Engine: "blocked",
			Cost: 15125, TableDigest: "6a0e2e343d2a1c47a2b95245b1c0ab05e5b35058ee3b93dcbeb18f9d7154f4bc",
			ElapsedMicros: 412,
			Reconstruction: &Reconstruction{
				Tree:   "((1 . (2 . 3)) . ((4 . 5) . 6))",
				Digest: "b1946ac92492d2347c6235b4d2611184b1946ac92492d2347c6235b4d2611184",
			},
		},
		"response_chain_path.json": &Response{
			ID: "req-c1", Kind: KindSegLS, N: 5, Engine: "llp",
			Cost: 7500, TableDigest: "3c0e2e343d2a1c47a2b95245b1c0ab05e5b35058ee3b93dcbeb18f9d7154f4bc",
			ElapsedMicros: 93,
			Reconstruction: &Reconstruction{
				Path:   []int{0, 2, 5},
				Digest: "c2946ac92492d2347c6235b4d2611184b1946ac92492d2347c6235b4d2611184",
			},
		},
	}
}

func TestGoldenWireFormat(t *testing.T) {
	for name, v := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/wire -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
			// Decode must round-trip back to the identical value: the
			// format carries everything the type does.
			back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := json.Unmarshal(want, back); err != nil {
				t.Fatalf("golden file does not decode: %v", err)
			}
			if !reflect.DeepEqual(v, back) {
				t.Errorf("decode(%s) != original:\n got %+v\nwant %+v", name, back, v)
			}
		})
	}
}

func TestRequestValidate(t *testing.T) {
	bad := []Request{
		{},
		{Kind: "povray"},
		{Kind: KindMatrixChain, Dims: []int{5}},
		{Kind: KindMatrixChain, Dims: []int{5, 0, 3}},
		{Kind: KindOBST, Alpha: []int64{1, 1}, Beta: []int64{1, 1, 1, 1}},
		{Kind: KindOBST, Alpha: []int64{1, -2}, Beta: []int64{1}},
		{Kind: KindTriangulation, Points: []Point{{X: 1}, {Y: 1}}},
		{Kind: KindWTriangulation, Weights: []int64{3, 0, 3}},
		{Kind: KindMatrixChain, Dims: []int{2, 3, 4}, Options: Options{Mode: "frantic"}},
		{Kind: KindMatrixChain, Dims: []int{2, 3, 4}, Options: Options{Termination: "never"}},
		{Kind: KindMatrixChain, Dims: []int{2, 3, 4}, Options: Options{Semiring: "tropical?"}},
		{Kind: KindWorstChain, Dims: []int{5}},
		{Kind: KindWorstChain, Dims: []int{5, 0, 3}},
		{Kind: KindBoolSplit},
		{Kind: KindBoolSplit, Count: 4, Forbidden: []Span{{2, 2}}},
		{Kind: KindBoolSplit, Count: 4, Forbidden: []Span{{-1, 2}}},
		{Kind: KindBoolSplit, Count: 4, Forbidden: []Span{{1, 9}}},
		{Kind: KindSegLS},
		{Kind: KindSegLS, Points: []Point{{X: 0}, {X: 0}}},
		{Kind: KindSegLS, Points: []Point{{X: 0}, {X: 1}}, Penalty: -5},
		{Kind: KindWIS},
		{Kind: KindWIS, Starts: []int64{1, 2}, Ends: []int64{3}, Weights: []int64{1, 1}},
		{Kind: KindWIS, Starts: []int64{5}, Ends: []int64{5}, Weights: []int64{1}},
		{Kind: KindWIS, Starts: []int64{1}, Ends: []int64{2}, Weights: []int64{-1}},
		{Kind: KindSubsetSum, Items: []int64{3}},
		{Kind: KindSubsetSum, Target: 9},
		{Kind: KindSubsetSum, Target: 9, Items: []int64{3, 0}},
	}
	for i, r := range bad {
		if err := r.Validate(0); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a malformed request", i, r)
		}
	}
	ok := Request{Kind: KindMatrixChain, Dims: []int{30, 35, 15, 5, 10, 20, 25}}
	if err := ok.Validate(0); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	if err := ok.Validate(5); err == nil {
		t.Error("Validate(maxN=5) accepted an n=6 instance")
	}
}

// costOverflowRequests are feasible instances whose true optimum does
// not fit below cost.Inf, keyed by the golden error body Validate must
// produce for them; they were once answered 200 with cost.Inf, which
// reads as "unreachable".
var costOverflowRequests = map[string]Request{
	"error_cost_overflow_matrixchain.json":    {Kind: KindMatrixChain, Dims: []int{3000000, 3000000, 3000000, 3000000}},
	"error_cost_overflow_wtriangulation.json": {Kind: KindWTriangulation, Weights: []int64{3000000, 3000000, 3000000}},
	"error_cost_overflow_obst.json":           {Kind: KindOBST, Alpha: []int64{4e18, 4e18}, Beta: []int64{4e18}},
	"error_cost_overflow_wis.json": {Kind: KindWIS, Starts: []int64{0, 10, 20}, Ends: []int64{5, 15, 25},
		Weights: []int64{4e18, 4e18, 4e18}},
	"error_cost_overflow_triangulation.json": {Kind: KindTriangulation,
		Points: []Point{{X: 0, Y: 0}, {X: 4e18, Y: 0}, {X: 4e18, Y: 4e18}, {X: 0, Y: 4e18}}},
	"error_cost_overflow_segls.json": {Kind: KindSegLS,
		Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 3e9}, {X: 2, Y: -3e9}, {X: 3, Y: 3e9}}, Penalty: 4e18},
}

// Validate bounds magnitudes, not just shapes: each overflow request is
// rejected with its frozen golden message, a worst-chain twin with the
// matrixchain dims too, and the just-under-bound twins pass.
func TestValidateRejectsCostOverflow(t *testing.T) {
	golden := goldenCases()
	for name, r := range costOverflowRequests {
		err := r.Validate(0)
		if err == nil {
			t.Errorf("%s: Validate accepted an instance whose cost overflows", name)
			continue
		}
		if want := golden[name].(*ErrorBody).Error; err.Error() != want {
			t.Errorf("%s: Validate error %q, golden %q", name, err, want)
		}
	}
	worst := Request{Kind: KindWorstChain, Dims: costOverflowRequests["error_cost_overflow_matrixchain.json"].Dims}
	if err := worst.Validate(0); err == nil {
		t.Error("worstchain with overflowing dims accepted")
	}
	for _, r := range justUnderCostBound {
		if err := r.Validate(0); err != nil {
			t.Errorf("%s just under the cost bound rejected: %v", r.Kind, err)
		}
	}
}

// justUnderCostBound are the largest-magnitude instances of the bounded
// kinds the tests solve: their worst-case totals sit just below cost.Inf.
var justUnderCostBound = []Request{
	{Kind: KindMatrixChain, Dims: []int{1000000, 1000000, 1000000, 1000000}},
	{Kind: KindWTriangulation, Weights: []int64{1300000, 1300000, 1300000}},
	{Kind: KindOBST, Alpha: []int64{5e17, 5e17}, Beta: []int64{1.5e17}},
	{Kind: KindWIS, Starts: []int64{0, 10, 20}, Ends: []int64{5, 15, 25}, Weights: []int64{7e17, 7e17, 7e17}},
	{Kind: KindTriangulation, Points: []Point{{X: 0, Y: 0}, {X: 18e13, Y: 0}, {X: 18e13, Y: 18e13}, {X: 0, Y: 18e13}}},
	{Kind: KindSegLS, Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 1e6}, {X: 2, Y: -1e6}, {X: 3, Y: 1e6}}, Penalty: 55e16},
}

func TestRequestInstanceMatchesDirectConstruction(t *testing.T) {
	cases := []struct {
		req    Request
		direct func() *sublineardp.Instance
	}{
		{
			Request{Kind: KindMatrixChain, Dims: []int{30, 35, 15, 5, 10, 20, 25}},
			func() *sublineardp.Instance { return problems.MatrixChain([]int{30, 35, 15, 5, 10, 20, 25}) },
		},
		{
			Request{Kind: KindOBST, Alpha: []int64{1, 2, 1, 0, 1}, Beta: []int64{4, 2, 6, 3}},
			func() *sublineardp.Instance {
				return problems.OBST([]int64{1, 2, 1, 0, 1}, []int64{4, 2, 6, 3})
			},
		},
		{
			Request{Kind: KindWTriangulation, Weights: []int64{3, 7, 2, 9}},
			func() *sublineardp.Instance { return problems.WeightedTriangulation([]int64{3, 7, 2, 9}) },
		},
		{
			Request{Kind: KindTriangulation, Points: []Point{{X: 1000, Y: 0}, {X: 0, Y: 1000}, {X: -1000, Y: 0}, {X: 0, Y: -1000}}},
			func() *sublineardp.Instance {
				return problems.Triangulation([]problems.Point{
					{X: 1000, Y: 0}, {X: 0, Y: 1000}, {X: -1000, Y: 0}, {X: 0, Y: -1000}})
			},
		},
		{
			Request{Kind: KindWorstChain, Dims: []int{30, 35, 15, 5, 10, 20, 25}},
			func() *sublineardp.Instance {
				return problems.WorstCaseMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
			},
		},
		{
			Request{Kind: KindBoolSplit, Count: 6, Forbidden: []Span{{0, 3}, {2, 5}}},
			func() *sublineardp.Instance {
				return problems.ForbiddenSplits(6, [][2]int{{0, 3}, {2, 5}})
			},
		},
	}
	solver := sublineardp.MustNewSolver(sublineardp.EngineSequential)
	for _, tc := range cases {
		t.Run(tc.req.Kind, func(t *testing.T) {
			if err := tc.req.Validate(0); err != nil {
				t.Fatal(err)
			}
			decoded, err := tc.req.Instance()
			if err != nil {
				t.Fatal(err)
			}
			direct := tc.direct()
			dc, ok1 := decoded.Canonical()
			cc, ok2 := direct.Canonical()
			if !ok1 || !ok2 {
				t.Fatal("wire-built instance not canonicalisable")
			}
			if !bytes.Equal(dc, cc) {
				t.Fatal("wire-built instance canonicalises differently from the direct constructor")
			}
			a, err := solver.Solve(context.Background(), decoded)
			if err != nil {
				t.Fatal(err)
			}
			b, err := solver.Solve(context.Background(), direct)
			if err != nil {
				t.Fatal(err)
			}
			if TableDigest(a.Table) != TableDigest(b.Table) {
				t.Fatal("wire-built instance solves to a different table")
			}
		})
	}
}

func TestChainRequestInstanceMatchesDirectConstruction(t *testing.T) {
	cases := []struct {
		req    Request
		direct func() *sublineardp.Chain
	}{
		{
			Request{Kind: KindSegLS, Penalty: 2500,
				Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 10}, {X: 2, Y: 20}, {X: 3, Y: 18}, {X: 4, Y: 16}}},
			func() *sublineardp.Chain {
				return problems.SegmentedLeastSquares(
					[]int64{0, 1, 2, 3, 4}, []int64{0, 10, 20, 18, 16}, 2500)
			},
		},
		{
			Request{Kind: KindWIS,
				Starts:  []int64{1, 3, 0, 5, 3, 5, 6, 8},
				Ends:    []int64{4, 5, 6, 7, 9, 9, 10, 11},
				Weights: []int64{3, 2, 5, 2, 4, 6, 2, 4}},
			func() *sublineardp.Chain {
				return problems.IntervalScheduling(
					[]int64{1, 3, 0, 5, 3, 5, 6, 8},
					[]int64{4, 5, 6, 7, 9, 9, 10, 11},
					[]int64{3, 2, 5, 2, 4, 6, 2, 4})
			},
		},
		{
			Request{Kind: KindSubsetSum, Target: 30, Items: []int64{4, 9, 13}},
			func() *sublineardp.Chain { return problems.SubsetSum(30, []int64{4, 9, 13}) },
		},
	}
	solver := sublineardp.MustNewChainSolver(sublineardp.ChainEngineSequential)
	for _, tc := range cases {
		t.Run(tc.req.Kind, func(t *testing.T) {
			if !IsChainKind(tc.req.Kind) {
				t.Fatalf("IsChainKind(%q) = false", tc.req.Kind)
			}
			if err := tc.req.Validate(0); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.req.Instance(); err == nil {
				t.Fatal("Instance() accepted a chain kind")
			}
			decoded, err := tc.req.ChainInstance()
			if err != nil {
				t.Fatal(err)
			}
			direct := tc.direct()
			dc, ok1 := decoded.Canonical()
			cc, ok2 := direct.Canonical()
			if !ok1 || !ok2 {
				t.Fatal("wire-built chain not canonicalisable")
			}
			if !bytes.Equal(dc, cc) {
				t.Fatal("wire-built chain canonicalises differently from the direct constructor")
			}
			a, err := solver.Solve(context.Background(), decoded)
			if err != nil {
				t.Fatal(err)
			}
			b, err := solver.Solve(context.Background(), direct)
			if err != nil {
				t.Fatal(err)
			}
			if VectorDigest(a.Values) != VectorDigest(b.Values) {
				t.Fatal("wire-built chain solves to a different value vector")
			}
			resp := NewChainResponse(&tc.req, a)
			if resp.Kind != tc.req.Kind || resp.N != decoded.N || resp.TableDigest != VectorDigest(a.Values) {
				t.Fatalf("NewChainResponse mismatch: %+v", resp)
			}
		})
	}
}

func TestChainResponsePath(t *testing.T) {
	req := Request{Kind: KindSegLS, Penalty: 2500, WantTree: true,
		Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 5}, {X: 2, Y: 10}, {X: 3, Y: 15}}}
	if err := req.Validate(0); err != nil {
		t.Fatal(err)
	}
	c, err := req.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sublineardp.MustNewChainSolver("").Solve(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewChainResponse(&req, sol)
	if resp.Tree != "0 4" {
		t.Fatalf("collinear points produced breakpoints %q, want \"0 4\"", resp.Tree)
	}
}

// Shifting every x of a segls body by a constant does not change the
// segmentation problem, so the shifted twin must get the same answer:
// the same cost, vector digest and breakpoints. A 64-point noisy
// four-piece series at x = 0..63 and its twin at x = 1e8..1e8+63 once
// got different costs from raw (uncentred) float moments.
func TestSegLSShiftedTwinSameAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	slopes := []int64{3, -2, 5, 0}
	base := make([]Point, 64)
	y := int64(0)
	for x := range base {
		if x%16 == 0 {
			y += int64(rng.Intn(41) - 20)
		}
		y += slopes[x/16]
		base[x] = Point{X: int64(x), Y: y + int64(rng.Intn(7)-3)}
	}
	solve := func(shift int64) *Response {
		req := Request{Kind: KindSegLS, Penalty: 50, WantTree: true, Points: make([]Point, len(base))}
		for i, p := range base {
			req.Points[i] = Point{X: p.X + shift, Y: p.Y}
		}
		if err := req.Validate(0); err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		c, err := req.ChainInstance()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := sublineardp.MustNewChainSolver("").Solve(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return NewChainResponse(&req, sol)
	}
	a, b := solve(0), solve(1e8)
	if a.Cost != b.Cost || a.TableDigest != b.TableDigest || a.Tree != b.Tree {
		t.Fatalf("shifted twin answers differently: cost %d vs %d, tree %q vs %q", a.Cost, b.Cost, a.Tree, b.Tree)
	}
}

// chain_window is part of the problem statement: Validate gates it to
// chain kinds and non-negative values, and ChainInstance threads it as
// a tightening-only constraint — a window wider than the constructor's
// would admit candidates the family's F never defined.
func TestChainWindowValidateAndThreading(t *testing.T) {
	wis := Request{Kind: KindWIS,
		Starts: []int64{1, 3, 0, 5}, Ends: []int64{4, 5, 6, 7}, Weights: []int64{3, 2, 5, 2}}

	bad := wis
	bad.ChainWindow = -2
	if err := bad.Validate(0); err == nil {
		t.Error("negative chain_window accepted")
	}
	interval := Request{Kind: KindMatrixChain, Dims: []int{2, 3, 4}, ChainWindow: 2}
	if err := interval.Validate(0); err == nil {
		t.Error("chain_window on an interval kind accepted")
	}

	// Full-prefix constructor (WIS): any positive window tightens.
	wis.ChainWindow = 3
	if err := wis.Validate(0); err != nil {
		t.Fatal(err)
	}
	c, err := wis.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	if c.Window != 3 {
		t.Errorf("wis chain_window=3: Window = %d, want 3", c.Window)
	}

	// Positive constructor window (subsetsum: max item = 13): a narrower
	// request window tightens, a wider one is ignored.
	ss := Request{Kind: KindSubsetSum, Target: 30, Items: []int64{4, 9, 13}}
	ssc, err := ss.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	base := ssc.Window
	if base <= 0 {
		t.Fatalf("subsetsum constructor window = %d, want positive", base)
	}
	narrow := ss
	narrow.ChainWindow = base - 1
	if nc, err := narrow.ChainInstance(); err != nil || nc.Window != base-1 {
		t.Errorf("narrow chain_window: Window = %d (err %v), want %d", nc.Window, err, base-1)
	}
	wide := ss
	wide.ChainWindow = base + 10
	if wc, err := wide.ChainInstance(); err != nil || wc.Window != base {
		t.Errorf("wide chain_window widened the constructor window: Window = %d (err %v), want %d",
			wc.Window, err, base)
	}

	// The tightened window changes the canonical encoding, so the two
	// requests can never share a cache entry.
	a, _ := wis.ChainInstance()
	wis.ChainWindow = 0
	b, _ := wis.ChainInstance()
	ca, _ := a.Canonical()
	cb, _ := b.Canonical()
	if bytes.Equal(ca, cb) {
		t.Error("windowed and full-prefix chains share a canonical encoding")
	}
}

// return_splits on an interval kind adds the reconstruction section:
// the served tree must match a direct solve, carry the matching digest,
// and leave the frozen legacy fields untouched.
func TestResponseReconstructionTree(t *testing.T) {
	req := Request{Kind: KindMatrixChain, Dims: []int{30, 35, 15, 5, 10, 20, 25},
		ReturnSplits: true, Options: Options{Engine: "blocked"}}
	if err := req.Validate(0); err != nil {
		t.Fatal(err)
	}
	in, err := req.Instance()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.SolverOptions()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sublineardp.MustNewSolver(req.Engine(), opts...).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(&req, sol)
	if resp.Reconstruction == nil {
		t.Fatal("return_splits produced no reconstruction section")
	}
	want := seq.Solve(in).Tree()
	if resp.Reconstruction.Tree != want.Encode() {
		t.Errorf("served tree %q, direct solve %q", resp.Reconstruction.Tree, want.Encode())
	}
	if resp.Reconstruction.Digest != TreeDigest(want) {
		t.Errorf("served tree digest %q, want %q", resp.Reconstruction.Digest, TreeDigest(want))
	}
	if resp.Reconstruction.Error != "" || resp.Reconstruction.Path != nil {
		t.Errorf("interval reconstruction carries stray fields: %+v", resp.Reconstruction)
	}
	if resp.Tree != "" {
		t.Errorf("return_splits leaked into the legacy want_tree field: %q", resp.Tree)
	}

	// An unreachable root reports the error in-band instead of failing
	// the whole response.
	walls := Request{Kind: KindBoolSplit, Count: 4,
		Forbidden: []Span{{0, 2}, {1, 3}, {2, 4}}, ReturnSplits: true}
	win, err := walls.Instance()
	if err != nil {
		t.Fatal(err)
	}
	wsol, err := sublineardp.MustNewSolver(walls.Engine()).Solve(context.Background(), win)
	if err != nil {
		t.Fatal(err)
	}
	wresp := NewResponse(&walls, wsol)
	if wresp.Reconstruction == nil || wresp.Reconstruction.Error == "" {
		t.Fatalf("infeasible instance: reconstruction = %+v, want in-band error", wresp.Reconstruction)
	}
	if wresp.Reconstruction.Tree != "" || wresp.Reconstruction.Digest != "" {
		t.Errorf("infeasible instance fabricated a tree: %+v", wresp.Reconstruction)
	}
}

// return_splits on a chain kind serves the breakpoint path with its own
// digest, separate from the legacy want_tree text rendering.
func TestChainResponseReconstructionPath(t *testing.T) {
	req := Request{Kind: KindSegLS, Penalty: 2500, ReturnSplits: true,
		Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 5}, {X: 2, Y: 10}, {X: 3, Y: 15}}}
	if err := req.Validate(0); err != nil {
		t.Fatal(err)
	}
	c, err := req.ChainInstance()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sublineardp.MustNewChainSolver("").Solve(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewChainResponse(&req, sol)
	if resp.Reconstruction == nil {
		t.Fatal("return_splits produced no reconstruction section")
	}
	want, err := sol.Path()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Reconstruction.Path, want) {
		t.Errorf("served path %v, direct %v", resp.Reconstruction.Path, want)
	}
	if resp.Reconstruction.Digest != PathDigest(want) {
		t.Errorf("served path digest %q, want %q", resp.Reconstruction.Digest, PathDigest(want))
	}
	if resp.Tree != "" {
		t.Errorf("return_splits leaked into the legacy want_tree field: %q", resp.Tree)
	}
}

// The three digest families are domain-separated: identical underlying
// bytes can never collide across table/tree/path digests, and each
// distinguishes distinct values.
func TestTreeAndPathDigests(t *testing.T) {
	in := problems.MatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	tr := seq.Solve(in).Tree()
	if TreeDigest(tr) != TreeDigest(tr) {
		t.Fatal("TreeDigest not deterministic")
	}
	other := seq.Solve(problems.MatrixChain([]int{2, 9, 2, 9, 2, 9, 2})).Tree()
	if TreeDigest(tr) == TreeDigest(other) {
		t.Fatal("different trees share a digest")
	}
	if PathDigest([]int{0, 2, 5}) == PathDigest([]int{0, 3, 5}) {
		t.Fatal("different paths share a digest")
	}
	if PathDigest([]int{0, 2, 5}) == PathDigest([]int{0, 2}) {
		t.Fatal("prefix path shares a digest")
	}
}

func TestVectorDigestDomainSeparated(t *testing.T) {
	s := sublineardp.MustNewChainSolver(sublineardp.ChainEngineSequential)
	a, err := s.Solve(context.Background(), problems.SubsetSum(20, []int64{3, 7}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Solve(context.Background(), problems.SubsetSum(20, []int64{3, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if VectorDigest(a.Values) == VectorDigest(b.Values) {
		t.Fatal("different vectors share a digest")
	}
	if VectorDigest(a.Values) != VectorDigest(a.Values.Clone()) {
		t.Fatal("cloned vector digests differently")
	}
}

func TestTableDigestDistinguishesTables(t *testing.T) {
	s := sublineardp.MustNewSolver(sublineardp.EngineSequential)
	a, err := s.Solve(context.Background(), problems.MatrixChain([]int{2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Solve(context.Background(), problems.MatrixChain([]int{2, 3, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if TableDigest(a.Table) == TableDigest(b.Table) {
		t.Fatal("different tables share a digest")
	}
	if TableDigest(a.Table) != TableDigest(a.Table.Clone()) {
		t.Fatal("cloned table digests differently")
	}
}
