package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// The baseline file holds the recorded runs, oldest first:
//
//	{"runs": [ { "timestamp": ..., "gomaxprocs": ..., "benchmarks": {...} }, ... ]}
//
// Fields this command no longer writes (older runs carry harness timings)
// are ignored on load and dropped when -record rewrites the file.

// benchmark is one recorded `go test -bench -benchmem` measurement.
type benchmark struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// recordedRun is one -record invocation: its host and toolchain, and the
// measurements keyed by benchmark name.
type recordedRun struct {
	Timestamp  string               `json:"timestamp"` // RFC 3339
	GoVersion  string               `json:"go_version"`
	GOOS       string               `json:"goos"`
	GOARCH     string               `json:"goarch"`
	NumCPU     int                  `json:"num_cpu"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Benchmarks map[string]benchmark `json:"benchmarks,omitempty"`
	// Note labels what this run measured (e.g. "gob codec + per-commit
	// fsync baseline"), so before/after pairs read without git archaeology.
	Note string `json:"note,omitempty"`
}

// newRun returns a run stamped with the current time and host/toolchain
// metadata; the caller fills in the measurements.
func newRun() recordedRun {
	return recordedRun{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

type runsFile struct {
	Runs []recordedRun `json:"runs"`
}

// loadRuns reads the recorded runs; a missing or empty file yields an
// empty history.
func loadRuns(path string) ([]recordedRun, error) {
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
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return f.Runs, nil
}

// appendRun adds r to the history at path, creating the file if needed.
func appendRun(path string, r recordedRun) error {
	runs, err := loadRuns(path)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(runsFile{Runs: append(runs, r)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
