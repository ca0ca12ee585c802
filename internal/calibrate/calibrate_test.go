package calibrate

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfileRoundTrip(t *testing.T) {
	p := &Profile{
		Schema:     Schema,
		GoVersion:  "go-test",
		GOMAXPROCS: 4,
		Workers:    4,
		AutoCutoff: 48,
		TileSize:   128,
		Probes: []Probe{
			{Kind: "cutoff", Engine: "sequential", N: 48, NsPerOp: 1000},
			{Kind: "tile", Engine: "blocked-pipe", N: 1024, Tile: 128, NsPerOp: 5000},
		},
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.AutoCutoff != 48 || got.TileSize != 128 {
		t.Fatalf("thresholds did not round-trip: %+v", got)
	}
	if len(got.Probes) != 2 || got.Probes[1].Tile != 128 {
		t.Fatalf("probes did not round-trip: %+v", got.Probes)
	}
}

func TestLoadRejectsBadProfiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"bad-schema.json": `{"schema":"something/else","auto_cutoff":10}`,
		"negative.json":   `{"schema":"` + Schema + `","auto_cutoff":-1}`,
		"not-json.json":   `{"schema":`,
	}
	for name, body := range cases {
		if _, err := Load(write(name, body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file: accepted")
	}

	// Partial profiles are valid: zero thresholds mean "keep defaults".
	if _, err := Load(write("partial.json", `{"schema":"`+Schema+`","tile_size":96}`)); err != nil {
		t.Errorf("partial profile rejected: %v", err)
	}
	// Keys the schema no longer reads, such as auto_large_cutoff in the
	// committed CALIBRATION.json, are ignored, not rejected.
	if _, err := Load(write("stale.json", `{"schema":"`+Schema+`","auto_cutoff":100,"auto_large_cutoff":50}`)); err != nil {
		t.Errorf("profile with a retired key rejected: %v", err)
	}
}
