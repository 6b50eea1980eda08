// Package benchjson records the perf trajectory of the experiment
// harness. Each invocation of cmd/figures with -benchjson appends one Run
// to a JSON file (BENCH_figures.json at the repo root by convention), so
// successive PRs can compare wall-clock, cells/sec, and parallel speedup
// against the recorded history.
//
// File format:
//
//	{"runs": [ { "timestamp": ..., "jobs": ..., "sweeps": [...] }, ... ]}
package benchjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Benchmark records one `go test -bench -benchmem` measurement attached
// to a run (e.g. the allocation profile of a figure's cell grid);
// cmd/benchguard gates allocs/op against it.
type Benchmark struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// SweepBench is one sweep's timing within a run.
type SweepBench struct {
	ID          string  `json:"id"`
	Cells       int     `json:"cells"`
	WallSeconds float64 `json:"wall_seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// Run is one recorded harness invocation.
type Run struct {
	Timestamp      string       `json:"timestamp"` // RFC 3339
	GoVersion      string       `json:"go_version"`
	GOOS           string       `json:"goos"`
	GOARCH         string       `json:"goarch"`
	NumCPU         int          `json:"num_cpu"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	Jobs           int          `json:"jobs"`
	Quick          bool         `json:"quick"`
	Seed           int64        `json:"seed"`
	Only           string       `json:"only,omitempty"` // -only selection, if any
	Cells          int          `json:"cells"`
	WallSeconds    float64      `json:"wall_seconds"`
	CellsPerSec    float64      `json:"cells_per_sec"`
	SpeedupVsJobs1 float64      `json:"speedup_vs_jobs1,omitempty"`
	Sweeps         []SweepBench `json:"sweeps,omitempty"`
	// Benchmarks carries go-test benchmark measurements recorded
	// alongside harness runs (keyed by benchmark name), so allocation
	// trajectories live in the same history as wall-clock ones.
	Benchmarks map[string]Benchmark `json:"benchmarks,omitempty"`
	// Note labels what this run measured (e.g. "gob codec + per-commit
	// fsync baseline"), so before/after pairs read without git archaeology.
	Note string `json:"note,omitempty"`
}

// NewRun returns a Run stamped with the current time and host/toolchain
// metadata; the caller fills in the measurements.
func NewRun() Run {
	return Run{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

type file struct {
	Runs []Run `json:"runs"`
}

// Load reads the recorded runs; a missing file yields an empty history.
func Load(path string) ([]Run, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	return f.Runs, nil
}

// Append adds run to the history at path, creating the file if needed.
func Append(path string, run Run) error {
	runs, err := Load(path)
	if err != nil {
		return err
	}
	runs = append(runs, run)
	data, err := json.MarshalIndent(file{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Baseline returns the most recent recorded run with Jobs == 1 matching
// the given mode (quick flag, seed, and -only selection), or nil. It is
// the denominator for SpeedupVsJobs1.
func Baseline(runs []Run, quick bool, seed int64, only string) *Run {
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		if r.Jobs == 1 && r.Quick == quick && r.Seed == seed && r.Only == only &&
			r.WallSeconds > 0 {
			return &r
		}
	}
	return nil
}
