package sublineardp

import (
	"path/filepath"
	"testing"

	"sublineardp/internal/calibrate"
	"sublineardp/internal/problems"
)

// The calibration contract: a profile's measured thresholds replace the
// compiled-in routing constants, explicitly-set knobs beat the profile
// in either option order, and a nil profile changes nothing.
func TestWithCalibrationRoutesByProfile(t *testing.T) {
	prof := &Calibration{
		Schema:     calibrate.Schema,
		AutoCutoff: 10,
		TileSize:   96,
	}
	small := problems.RandomInstance(15, 50, 1) // default tier: sequential

	cfg := buildConfig([]Option{WithCalibration(prof)})
	if got := pickAutoName(small, &cfg); got != EngineBlockedPipe {
		t.Errorf("n=15 under calibrated cutoff 10 routed to %q, want %q", got, EngineBlockedPipe)
	}
	if cfg.TileSize != 96 {
		t.Errorf("calibrated tile size not applied: %d", cfg.TileSize)
	}

	// Explicit knobs win regardless of whether they are applied before
	// or after the profile.
	for _, opts := range [][]Option{
		{WithAutoCutoff(64), WithTileSize(7), WithCalibration(prof)},
		{WithCalibration(prof), WithAutoCutoff(64), WithTileSize(7)},
	} {
		cfg := buildConfig(opts)
		if got := pickAutoName(small, &cfg); got != EngineSequential {
			t.Errorf("explicit cutoff lost to the profile: n=15 routed to %q", got)
		}
		if cfg.TileSize != 7 {
			t.Errorf("explicit tile size lost to the profile: %d", cfg.TileSize)
		}
	}

	base := buildConfig(nil)
	calibrated := buildConfig([]Option{WithCalibration(nil)})
	if base != calibrated {
		t.Error("nil profile is not a no-op")
	}
}

func TestLoadCalibrationRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), DefaultCalibrationPath)
	prof := &Calibration{Schema: calibrate.Schema, AutoCutoff: 32, TileSize: 128}
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.AutoCutoff != 32 || got.TileSize != 128 {
		t.Fatalf("profile did not round-trip: %+v", got)
	}
	// The committed profile still loads: its auto_large_cutoff key is
	// no longer read and must not make it invalid.
	if _, err := LoadCalibration(DefaultCalibrationPath); err != nil {
		t.Fatalf("committed %s: %v", DefaultCalibrationPath, err)
	}
	if _, err := LoadCalibration(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing profile accepted")
	}
}
