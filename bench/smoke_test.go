package main

import (
	"regexp"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and the program from
// drifting: same workloads, same metrics with the same units, in the
// same order, all within the contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, i int, got, gotUnit, gotBetter string, want metricDef) {
		t.Helper()
		if got != want.Name || gotUnit != want.Unit || gotBetter != want.Better {
			t.Errorf("%s %d: BENCHMARK.json has %q (%s, %s), the program emits %q (%s, %s)",
				kind, i, got, gotUnit, gotBetter, want.Name, want.Unit, want.Better)
		}
		if !name.MatchString(got) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, got)
		}
		if seen[got] {
			t.Errorf("name %q is used twice", got)
		}
		seen[got] = true
	}
	listed := listedWorkloads()
	if len(bf.Workloads) != len(listed) || len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(listed), len(endToEnd), len(perLayer))
	}
	if len(listed) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("over the contract's limits of 8 workloads / 16 end-to-end / 128 per-layer")
	}
	for i, w := range bf.Workloads {
		check("workload", i, w.Name, "", "", metricDef{Name: listed[i].Name})
		if w.Why != listed[i].Why {
			t.Errorf("workload %s: BENCHMARK.json's why differs from the program's", w.Name)
		}
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("setup_s is not an end-to-end metric")
	}
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// shrink makes set-up, probes and the simulator small enough for a test.
func shrink(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live server; skipped with -short")
	}
	warm, batch, sim := warmTxns, probeBatch, simOpts
	warmTxns, probeBatch = 100, 2*time.Millisecond
	simOpts = experiments.Opts{Warmup: 2, Measure: 15, Batches: 2}
	t.Cleanup(func() { warmTxns, probeBatch, simOpts = warm, batch, sim })
}

// TestSmoke runs every workload for a 1 s window with the oracle on and
// requires every metric of its pass to be emitted.
func TestSmoke(t *testing.T) {
	shrink(t)
	names := append(liveNames(), simWorkload)
	for _, name := range names {
		r, err := runOne(name, 1, 1, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", name, r.Failed, r.Attempted)
		}
		if w := findLive(name); w != nil && !w.Unlisted && len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: emitted %d end-to-end metrics, want %d", name, len(r.Metrics), len(endToEnd))
		}
	}
}

// TestTracedPass runs the traced pass, probes included, on the workload
// with the most moving parts.
func TestTracedPass(t *testing.T) {
	shrink(t)
	r, err := runOne("interleaved_sharing", 1, 2, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("emitted %d per-layer metrics, want %d", len(r.Metrics), len(perLayer))
	}
	if c := r.Metrics["trace.coverage_share"].Value; c < 0.95 {
		t.Errorf("trace.coverage_share %.3f < 0.95", c)
	}
}
