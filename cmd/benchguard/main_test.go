package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/live
BenchmarkWireControl/codec=binary-4         	  200000	      5210 ns/op	      32 B/op	       1 allocs/op
BenchmarkLiveCommit/clients=32-4            	    2000	    401234 ns/op	     18734 txn/s	   2100000 p99-commit-ns
BenchmarkFig05PageWriteProb                 	     100	     96000 ns/op
--- BENCH: BenchmarkSkipped
    bench_test.go:12: a log line, not a result
PASS
ok  	repro/internal/live	3.210s
`

func parse(t *testing.T, out string) map[string]measurement {
	t.Helper()
	m, err := parseBenchOutput(strings.NewReader(out), false)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBenchOutput(t *testing.T) {
	got := parse(t, benchOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3 (non-result lines skipped): %+v", len(got), got)
	}
	wire, ok := got["BenchmarkWireControl/codec=binary"]
	if !ok {
		t.Fatalf("-4 suffix not stripped: %+v", got)
	}
	if wire != (measurement{nsPerOp: 5210, bytesOp: 32, allocs: 1, procs: 4}) {
		t.Errorf("wire = %+v", wire)
	}
	commit := got["BenchmarkLiveCommit/clients=32"]
	if commit.opsPerSec != 18734 || commit.allocs != -1 || commit.procs != 4 {
		t.Errorf("txn/s column or missing -benchmem misread: %+v", commit)
	}
	if fig := got["BenchmarkFig05PageWriteProb"]; fig.procs != 1 || fig.nsPerOp != 96000 {
		t.Errorf("a name without suffix is a GOMAXPROCS=1 run: %+v", fig)
	}
	if _, err := parseBenchOutput(strings.NewReader("BenchmarkX-2 10 abc ns/op\n"), false); err == nil {
		t.Error("a malformed value parsed")
	}
}

func run(procs int, allocs map[string]float64) recordedRun {
	r := recordedRun{GOMAXPROCS: procs, Benchmarks: map[string]benchmark{}}
	for name, a := range allocs {
		r.Benchmarks[name] = benchmark{AllocsPerOp: a}
	}
	return r
}

func TestCheckBaseline(t *testing.T) {
	runs := []recordedRun{
		run(1, map[string]float64{"BenchmarkA": 50, "BenchmarkB": 100, "BenchmarkZero": 0}),
		run(4, map[string]float64{"BenchmarkA": 1}),   // another P count: ignored
		run(1, map[string]float64{"BenchmarkA": 100}), // latest wins
	}
	for _, tc := range []struct {
		name   string
		allocs float64
		fail   bool
	}{
		{"BenchmarkA", 105, false}, // exactly +5 %
		{"BenchmarkA", 106, true},
		{"BenchmarkB", 95, false},
		{"BenchmarkZero", 0, false},
		{"BenchmarkZero", 1, true},
		{"BenchmarkUnknown", 1e6, false}, // no baseline: skipped
	} {
		var out strings.Builder
		cur := map[string]measurement{tc.name: {allocs: tc.allocs}}
		failed, err := checkBaseline(&out, runs, cur, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if failed != tc.fail {
			t.Errorf("%s at %.0f allocs/op: failed=%v, want %v\n%s", tc.name, tc.allocs, failed, tc.fail, out.String())
		}
		if strings.Contains(out.String(), "Inf") || strings.Contains(out.String(), "NaN") {
			t.Errorf("%s: report has no words for a zero baseline:\n%s", tc.name, out.String())
		}
		if tc.name == "BenchmarkZero" && !strings.Contains(out.String(), "baseline 0: any allocation fails") {
			t.Errorf("zero baseline reported as:\n%s", out.String())
		}
	}
	if _, err := checkBaseline(&strings.Builder{}, runs, map[string]measurement{"BenchmarkA": {}}, 5, 2); err == nil {
		t.Error("no baseline at GOMAXPROCS=2, yet no error")
	}
}

func TestCheckScaling(t *testing.T) {
	base := map[string]measurement{"BenchmarkC": {opsPerSec: 1000}}
	for _, tc := range []struct {
		tps  float64
		fail bool
	}{{1800, false}, {1799, true}} {
		failed, err := checkScaling(&strings.Builder{}, base, map[string]measurement{"BenchmarkC": {opsPerSec: tc.tps}}, 1.8)
		if err != nil {
			t.Fatal(err)
		}
		if failed != tc.fail {
			t.Errorf("%.0f vs 1000 txn/s at floor 1.8x: failed=%v, want %v", tc.tps, failed, tc.fail)
		}
	}
	if _, err := checkScaling(&strings.Builder{}, base, map[string]measurement{"BenchmarkD": {opsPerSec: 1}}, 1.8); err == nil {
		t.Error("no shared benchmark, yet no error")
	}
}

// TestAppendLoad: runs come back in the order they were appended, with
// their metadata and measurements, and a run recorded with fields this
// command no longer writes (the harness timings of older runs) still loads.
func TestAppendLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if runs, err := loadRuns(path); err != nil || runs != nil {
		t.Fatalf("missing file: runs=%v err=%v", runs, err)
	}

	old := `{"runs": [{"timestamp": "2026-08-06T00:00:00Z", "gomaxprocs": 1, "jobs": 1, "quick": true,
	  "cells": 664, "wall_seconds": 120, "sweeps": [{"id": "fig3", "cells": 40}],
	  "benchmarks": {"BenchmarkFig03HotColdLowLocality": {"ns_per_op": 2.1e9, "allocs_per_op": 399165}}}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	next := newRun()
	next.Note = "next"
	next.Benchmarks = map[string]benchmark{"BenchmarkHeat": {NsPerOp: 12}}
	if err := appendRun(path, next); err != nil {
		t.Fatal(err)
	}

	runs, err := loadRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[1].Note != "next" {
		t.Fatalf("runs = %+v, want the old run then the appended one", runs)
	}
	if b := runs[0].Benchmarks["BenchmarkFig03HotColdLowLocality"]; b.AllocsPerOp != 399165 || runs[0].GOMAXPROCS != 1 {
		t.Fatalf("old run read as %+v", runs[0])
	}
	if runs[1].GoVersion == "" || runs[1].Timestamp == "" || runs[1].NumCPU < 1 || runs[1].Benchmarks["BenchmarkHeat"].NsPerOp != 12 {
		t.Fatalf("appended run read as %+v", runs[1])
	}
}
