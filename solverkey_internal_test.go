package sublineardp

import (
	"context"
	"testing"

	"sublineardp/internal/cache"
	"sublineardp/internal/problems"
)

// The cache-key audit behind solveKey's keying discipline: two
// configurations that differ in any result-affecting field must never
// share a solve key, and identical inputs must (determinism). A shared
// key here would mean one option set silently served another's solution
// — the exact hazard the canonical cache must exclude.
func TestSolveKeySeparatesResultAffectingOptions(t *testing.T) {
	in := problems.CLRSMatrixChain()
	base := Config{}

	// One mutation per result-affecting Config field, each applied to a
	// fresh copy of the base. Every mutation must move the key, and all
	// keys (base included) must be pairwise distinct.
	mutations := map[string]func(*Config){
		"workers":      func(c *Config) { c.Workers = 3 },
		"tile":         func(c *Config) { c.TileSize = 17 },
		"mode":         func(c *Config) { c.Mode = Chaotic },
		"termination":  func(c *Config) { c.Termination = WStable },
		"termination2": func(c *Config) { c.Termination = WPWStable },
		"maxiter":      func(c *Config) { c.MaxIterations = 5 },
		"band":         func(c *Config) { c.BandRadius = 7 },
		"window":       func(c *Config) { c.Window = true },
		"autocutoff":   func(c *Config) { c.AutoCutoff = 10 },
		"history":      func(c *Config) { c.History = true },
		"semiring":     func(c *Config) { c.Semiring = MaxPlus },
		"semiring2":    func(c *Config) { c.Semiring = BoolPlan },
		"splits":       func(c *Config) { c.RecordSplits = true },
		"convexity":    func(c *Config) { c.Convexity = true },
	}
	keys := map[cache.Key]string{}
	add := func(label string, key cache.Key) {
		if prev, dup := keys[key]; dup {
			t.Fatalf("option sets %q and %q share a solve key", prev, label)
		}
		keys[key] = label
	}

	baseKey, ok := solveKey(in, EngineAuto, &base)
	if !ok {
		t.Fatal("canonicalisable instance not keyed")
	}
	if again, _ := solveKey(in, EngineAuto, &base); again != baseKey {
		t.Fatal("solve key is not deterministic")
	}
	add("base", baseKey)

	for label, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		key, ok := solveKey(in, EngineAuto, &cfg)
		if !ok {
			t.Fatalf("%s: not keyed", label)
		}
		add(label, key)
	}

	// Engine routing is keyed through the engine name argument.
	for _, engine := range []string{EngineSequential, EngineHLVBanded, EngineHLVDense, EngineBlocked, EngineBlockedPipe, EngineBlockedKY} {
		key, _ := solveKey(in, engine, &base)
		add("engine="+engine, key)
	}

	// The canonically distinct algebra twin of the same parameters (the
	// declared algebra lives in the canonical bytes, not only in the
	// config override).
	twin := problems.WorstCaseMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	twinKey, ok := solveKey(twin, EngineAuto, &base)
	if !ok {
		t.Fatal("worstchain twin not keyed")
	}
	add("worstchain-twin", twinKey)

	// And the override spelling of the same algebra must coincide with
	// neither min-plus nor the declared twin: the parameters hash
	// differently (matrixchain vs worstchain canon) even though the
	// effective algebra matches.
	maxCfg := base
	maxCfg.Semiring = MaxPlus
	overrideKey, _ := solveKey(in, EngineAuto, &maxCfg)
	if overrideKey == twinKey {
		t.Fatal("override max-plus on matrixchain collides with declared worstchain")
	}
}

// The other half of the keying discipline, justifying every
// `//lint:allow keycoverage` exemption in solveropts.go: execution
// plumbing must NOT move the key. Pool, Cache and Concurrency change
// where and when a solve runs, never what it returns — keying them
// would split identical solves across cache entries. Target is the one
// exempted field that does alter the Solution (ConvergedAt), so the
// second half pins solver.go's stronger guarantee: a Solver with a
// Target never touches its cache at all.
func TestSolveKeyIgnoresExecutionPlumbing(t *testing.T) {
	in := problems.CLRSMatrixChain()
	base := Config{}
	baseKey, ok := solveKey(in, EngineAuto, &base)
	if !ok {
		t.Fatal("not keyed")
	}

	pool := NewPool(2)
	defer pool.Close()
	plumbing := map[string]func(*Config){
		"pool":        func(c *Config) { c.Pool = pool },
		"cache":       func(c *Config) { c.Cache = NewCache(8) },
		"concurrency": func(c *Config) { c.Concurrency = 3 },
		"target":      func(c *Config) { c.Target = &Table{N: in.N} },
	}
	for label, mutate := range plumbing {
		cfg := base
		mutate(&cfg)
		key, ok := solveKey(in, EngineAuto, &cfg)
		if !ok {
			t.Fatalf("%s: not keyed", label)
		}
		if key != baseKey {
			t.Errorf("%s: execution plumbing moved the solve key", label)
		}
	}

	// The Target cache-bypass: a cached ConvergedAt recorded under a
	// different target would be silently wrong, so Solver.Solve must
	// skip the cache protocol entirely when Target is set.
	ref, err := MustNewSolver(EngineSequential).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(8)
	s := MustNewSolver(EngineSequential, WithCache(c), WithTarget(ref.Table))
	for i := 0; i < 2; i++ {
		sol, err := s.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cached {
			t.Fatalf("solve %d with Target was served from cache", i)
		}
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Insertions+st.Solves != 0 {
		t.Errorf("Target did not bypass the cache: stats %+v", st)
	}
}

// An explicit override must also separate from the instance's declared
// algebra when they disagree — WithSemiring(MinPlus) on a worstchain
// instance is a different computation than its declared max-plus solve.
func TestSolveKeyOverrideBeatsDeclaredAlgebra(t *testing.T) {
	twin := problems.WorstCaseMatrixChain([]int{2, 3, 4, 5})
	declared, ok := solveKey(twin, EngineAuto, &Config{})
	if !ok {
		t.Fatal("not keyed")
	}
	overridden, _ := solveKey(twin, EngineAuto, &Config{Semiring: MinPlus})
	if declared == overridden {
		t.Fatal("min-plus override shares a key with the declared max-plus solve")
	}
}
