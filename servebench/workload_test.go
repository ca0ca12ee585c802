package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"

	"sublineardp"
	"sublineardp/internal/wire"
)

func bodies(set *requestSet) []byte {
	var b bytes.Buffer
	for _, list := range [][]*request{set.Warm, set.Reqs} {
		for _, r := range list {
			b.Write(r.Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestRequestSetIsDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := buildSet(wl, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSet(wl, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildSet(wl, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bodies(a), bodies(b)) {
			t.Errorf("%s: seed 7 built two different request sets", wl)
		}
		if bytes.Equal(bodies(a), bodies(c)) {
			t.Errorf("%s: seeds 7 and 8 built the same request set", wl)
		}
	}
}

func TestServeColdNeverRepeatsAnInstance(t *testing.T) {
	set, err := buildSet(wlServeCold, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, r := range set.Reqs {
		canon, err := canonical(r.Req)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(canon)]; dup {
			t.Fatalf("%s repeats the canonical instance of %s", r.ID, prev)
		}
		seen[string(canon)] = r.ID
	}
	if len(set.Reqs) != coldRate*12 {
		t.Errorf("serve-cold sends %d requests, want %d", len(set.Reqs), coldRate*12)
	}
}

func TestServeHotMeasuresOnlyWarmInstances(t *testing.T) {
	set, err := buildSet(wlServeHot, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for _, r := range set.Warm {
		warm[r.ID] = true
	}
	if len(warm) != len(hotFamilies)*hotDistinct {
		t.Errorf("%d distinct warm instances, want %d", len(warm), len(hotFamilies)*hotDistinct)
	}
	for _, r := range set.Reqs {
		if !warm[r.ID] {
			t.Fatalf("measured request %s was not sent during set-up, so it would miss", r.ID)
		}
	}
}

// TestSolveLargeRoutesToTileEngines solves one request of every family
// and size solve-large sends, under the server's default auto engine,
// and checks the engine auto picked.
func TestSolveLargeRoutesToTileEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("solves n=2048 and n=1024 instances")
	}
	set, err := buildSet(wlSolveLarge, 3, len(largePattern)/largePerSecond)
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	for _, r := range set.Reqs {
		shape := fmt.Sprintf("%s-n%d", r.Family, r.N)
		if done[shape] {
			continue
		}
		done[shape] = true
		in, err := r.Req.Instance()
		if err != nil {
			t.Fatal(err)
		}
		opts, err := r.Req.SolverOptions()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := sublineardp.MustNewSolver(sublineardp.EngineAuto, opts...).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != sublineardp.EngineBlockedPipe && sol.Engine != sublineardp.EngineBlockedKY {
			t.Errorf("%s routes to %s, want blocked-pipe or blocked-ky", shape, sol.Engine)
		}
	}
	if len(done) != 7 {
		t.Errorf("checked %d family/size shapes, want the pattern's 7", len(done))
	}
}

// TestOracleMatchesServedAnswers checks the answer check itself: for
// every family, the oracle's digests equal those of the response the
// server's code path builds from an auto solve.
func TestOracleMatchesServedAnswers(t *testing.T) {
	g := newGenerator(5)
	for _, s := range append(append([]slot(nil), hotFamilies...), slot{"seglspath", 600}, slot{"mlptree", 300}) {
		r, err := g.fresh(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle(r.Req)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := r.Req.SolverOptions()
		if err != nil {
			t.Fatal(err)
		}
		var resp *wire.Response
		if wire.IsChainKind(r.Req.Kind) {
			c, err := r.Req.ChainInstance()
			if err != nil {
				t.Fatal(err)
			}
			sol, err := sublineardp.MustNewChainSolver(sublineardp.ChainEngineAuto, opts...).Solve(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			resp = wire.NewChainResponse(r.Req, sol)
		} else {
			in, err := r.Req.Instance()
			if err != nil {
				t.Fatal(err)
			}
			sol, err := sublineardp.MustNewSolver(sublineardp.EngineAuto, opts...).Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			resp = wire.NewResponse(r.Req, sol)
		}
		if err := check(resp, r.Req, want); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
		bad := *resp
		bad.TableDigest = want.Table[:len(want.Table)-1] + "x"
		if check(&bad, r.Req, want) == nil {
			t.Errorf("%s: a wrong table digest passed the check", r.ID)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricCatalogsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if !unitName.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s catalogued twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkFileListsTheCatalogs keeps BENCHMARK.json at the
// repository root in step with the metrics this program prints.
func TestBenchmarkFileListsTheCatalogs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program prints %d", len(got), kind, len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json %s metric %d is %v, the program prints %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}

func TestWindowedStatistics(t *testing.T) {
	xs := make([]float64, 10*statWindow)
	for i := range xs {
		xs[i] = float64(i % statWindow)
	}
	xs[5] = 1e9 // one outlier moves one window's maximum only
	got := windowed(len(xs), func(lo, hi int) float64 { return quantile(xs[lo:hi], 1) })
	if got != statWindow-1 {
		t.Errorf("windowed max = %v, want %v", got, statWindow-1)
	}
	few := []float64{1, 2, 3}
	if got := windowed(len(few), func(lo, hi int) float64 { return quantile(few[lo:hi], 0.5) }); got != 2 {
		t.Errorf("unwindowed median = %v, want 2", got)
	}
	if got := countCPUList("0-3,6,8-9"); got != 7 {
		t.Errorf("countCPUList = %d, want 7", got)
	}
}
