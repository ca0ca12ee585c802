package sublineardp

import (
	"sublineardp/internal/calibrate"
)

// Calibration is a machine-local measurement of the scheduling
// constants the auto engine and the tiled engines otherwise take from
// compiled-in defaults: the sequential/blocked-pipe crossover
// (DefaultAutoCutoff) and the blocked tile edge (DefaultTileSize's auto
// clamp). Generate one with `dpbench -calibrate`, which probes both on
// the current machine and writes DefaultCalibrationPath; apply it with
// WithCalibration.
type Calibration = calibrate.Profile

// DefaultCalibrationPath is the conventional profile location written
// by `dpbench -calibrate` ("CALIBRATION.json").
const DefaultCalibrationPath = calibrate.DefaultPath

// LoadCalibration reads and validates a calibration profile written by
// `dpbench -calibrate`. A profile with a foreign schema, or one whose
// thresholds are incoherent, is rejected rather than silently
// misrouting every auto solve.
func LoadCalibration(path string) (*Calibration, error) {
	return calibrate.Load(path)
}

// WithCalibration applies a measured calibration profile to the solve:
// the profile's non-zero thresholds replace the compiled-in
// DefaultAutoCutoff routing constant and the blocked engines' automatic
// tile-size choice. Knobs set explicitly by their own options
// (WithAutoCutoff, WithTileSize) win over the profile regardless of
// option order, and a nil profile is a no-op — callers can thread an
// optional profile through unconditionally.
func WithCalibration(p *Calibration) Option {
	return func(c *Config) {
		if p == nil {
			return
		}
		if p.AutoCutoff > 0 && c.AutoCutoff == 0 {
			c.AutoCutoff = p.AutoCutoff
		}
		if p.TileSize > 0 && c.TileSize == 0 {
			c.TileSize = p.TileSize
		}
	}
}
