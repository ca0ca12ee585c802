// Package calibrate defines the machine-local performance profile that
// replaces the library's compiled-in scheduling constants.
//
// The auto engine's routing threshold (sequential up to AutoCutoff,
// pipelined blocked tiles above) and the blocked engines' tile-edge
// floor were measured once on one development machine and baked in as
// DefaultAutoCutoff = 64 and DefaultTileSize = 64. Those numbers are
// wrong on any box with a different core count, cache hierarchy or
// memory bandwidth — the crossover where the parallel tier starts beating
// the cache-friendly sequential scan is a property of the machine, not
// of the algorithm.
//
// `dpbench -calibrate` re-measures both with the same
// best-of-k solve timing the BENCH_core.json baseline uses and writes
// the result here as a small JSON profile. Loading it (root package
// LoadCalibration + WithCalibration, or dpserved's -calibration flag)
// makes every auto-routed solve on that machine use the measured
// values instead of the defaults. The probes that justified each
// value are recorded alongside it, so a profile is auditable: the
// numbers can be traced back to the ns/op measurements that chose them.
package calibrate

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema identifies the profile format; Load rejects other schemas so a
// stale or foreign JSON file cannot silently misconfigure the router.
const Schema = "sublineardp/calibration/v1"

// DefaultPath is the conventional profile location, next to
// BENCH_core.json in the repository (or working directory) root.
const DefaultPath = "CALIBRATION.json"

// Probe is one timing measurement behind a calibrated threshold: engine
// × instance size → best-of-k wall time. Probes are evidence, not
// configuration — Load never interprets them.
type Probe struct {
	Kind    string `json:"kind"`   // "cutoff" or "tile"
	Engine  string `json:"engine"` // registry engine name probed
	N       int    `json:"n"`      // instance size
	Tile    int    `json:"tile,omitempty"`
	NsPerOp int64  `json:"ns_per_op"`
}

// Profile is a machine-local calibration of the scheduling constants.
// Zero-valued threshold fields mean "not calibrated, keep the default",
// so a partial profile is valid.
type Profile struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Workers    int    `json:"workers,omitempty"`

	// AutoCutoff is the measured instance size at or below which the
	// sequential scan beats the pipelined blocked engine.
	AutoCutoff int `json:"auto_cutoff,omitempty"`

	// TileSize is the measured best block edge for the blocked engines
	// on this machine.
	TileSize int `json:"tile_size,omitempty"`

	// Probes records the measurements the thresholds were derived from.
	Probes []Probe `json:"probes,omitempty"`
}

// Validate checks that the profile is structurally usable: the schema
// matches and every calibrated value is non-negative.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("calibrate: nil profile")
	}
	if p.Schema != Schema {
		return fmt.Errorf("calibrate: schema %q, want %q", p.Schema, Schema)
	}
	if p.AutoCutoff < 0 || p.TileSize < 0 {
		return fmt.Errorf("calibrate: negative threshold (cutoff=%d tile=%d)",
			p.AutoCutoff, p.TileSize)
	}
	return nil
}

// Load reads and validates a profile from path.
func Load(path string) (*Profile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("calibrate: %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return &p, nil
}

// Save validates the profile and writes it to path as indented JSON.
func (p *Profile) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
