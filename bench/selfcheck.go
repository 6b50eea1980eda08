package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// benchmarkFile is BENCHMARK.json as this program needs it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// runChild runs one workload in a process of its own, as the driver does
// (peak RSS and start-up cost are per process), and parses its last line.
func runChild(name string, seed int64, seconds int, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, r.Failed, r.Attempted)
	}
	return &r, nil
}

// runSet runs one workload on n consecutive seeds, one process each, and
// returns every metric's values in run order.
func runSet(name string, seed int64, n, seconds int, outDir string) (map[string][]float64, error) {
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		r, err := runChild(name, seed+int64(i), seconds, outDir)
		if err != nil {
			return nil, err
		}
		for metric, v := range r.Metrics {
			vals[metric] = append(vals[metric], v.Value)
		}
	}
	return vals, nil
}

// spreadFile is bench/spread.json: the runs the bounds were derived from.
type spreadFile struct {
	Host      string                             `json:"host"`
	Runs      int                                `json:"runs"`
	Seconds   int                                `json:"seconds"`
	Workloads map[string]map[string]metricSpread `json:"workloads"`
}

type metricSpread struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median over the runs
	Values []float64 `json:"values"`
}

// runSpread runs every listed workload on n consecutive seeds, each in
// its own process, and records each end-to-end metric's quartile spread.
// A bound is max(5%, 2 x the widest spread of that metric); a metric
// whose bound would pass 10% is a candidate for demotion to per-layer.
func runSpread(benchDir, outDir string, n int, seed int64, seconds int) int {
	sf := spreadFile{
		Host: fmt.Sprintf("%s/%s nproc=%d C=%d %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), numClients, runtime.Version()),
		Runs: n, Seconds: seconds, Workloads: map[string]map[string]metricSpread{},
	}
	widest := map[string]float64{}
	for _, w := range listedWorkloads() {
		vals, err := runSet(w.Name, seed, n, seconds, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sf.Workloads[w.Name] = map[string]metricSpread{}
		for _, d := range endToEnd {
			s := metricSpread{Median: median(vals[d.Name]), Spread: quartileSpread(vals[d.Name]), Values: vals[d.Name]}
			sf.Workloads[w.Name][d.Name] = s
			widest[d.Name] = math.Max(widest[d.Name], s.Spread)
			fmt.Printf("%-20s %-14s median %12.4f %-4s spread %.4f\n", w.Name, d.Name, s.Median, d.Unit, s.Spread)
		}
	}
	for _, d := range endToEnd {
		fmt.Printf("bound %-14s widest spread %.4f -> max(5%%, 2x) = %.3f\n", d.Name, widest[d.Name], math.Max(0.05, 2*widest[d.Name]))
	}
	b, err := json.MarshalIndent(sf, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(benchDir, "spread.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// selfcheckRuns is the size of one selfcheck set: a set's value for a
// metric is the median over this many consecutive seeds, one process each.
const selfcheckRuns = 3

// runSelfcheck runs two full sets of the same code back to back and
// fails unless every end-to-end metric on every workload agrees within
// its own bound. It first prints the recorded spread the bounds came
// from, and ends with sim_sweep, whose own check is exact repeatability.
func runSelfcheck(benchDir, outDir string, seed int64, seconds int) int {
	bf, err := readBenchmarkFile(benchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if b, err := os.ReadFile(filepath.Join(benchDir, "spread.json")); err == nil {
		var sf spreadFile
		if json.Unmarshal(b, &sf) == nil {
			fmt.Printf("recorded spread: %d runs of %d s on %s\n", sf.Runs, sf.Seconds, sf.Host)
			for _, w := range bf.Workloads {
				for _, m := range bf.EndToEnd {
					s := sf.Workloads[w.Name][m.Name]
					fmt.Printf("  %-20s %-14s median %12.4f spread %.4f bound %.2f\n", w.Name, m.Name, s.Median, s.Spread, m.Bound)
				}
			}
		}
	}
	bad := 0
	for _, w := range bf.Workloads {
		var sets [2]map[string][]float64
		for i := range sets {
			if sets[i], err = runSet(w.Name, seed, selfcheckRuns, seconds, outDir); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > m.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-20s %-14s %12.4f vs %12.4f %-4s diff %.4f bound %.2f %s\n", w.Name, m.Name, a, b, m.Unit, diff, m.Bound, verdict)
		}
	}
	if r, err := runOne(simWorkload, seed, seconds, false, outDir); err != nil || !r.Correct {
		fmt.Fprintln(os.Stderr, "bench: sim_sweep failed:", err)
		return 1
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metric/workload pairs disagree beyond their bounds\n", bad)
		return 1
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return 0
}
