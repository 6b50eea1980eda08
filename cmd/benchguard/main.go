// Command benchguard compares `go test -bench -benchmem` output on stdin
// against the latest recorded baseline in a benchjson file and exits
// non-zero on regression. CI uses it to keep the simulator's hot path
// allocation-free growth honest, and the live data plane's throughput
// guarded:
//
//	go test -bench 'Fig03|ClientTxnFootprint' -benchmem -run '^$' . ./internal/core/ | benchguard -baseline BENCH_figures.json -max-regress 5
//	go test -bench Wire -benchmem -run '^$' ./internal/live/ | benchguard -baseline BENCH_live.json -max-regress 5 -max-slower 40
//
// -max-regress bounds the allocs/op increase (allocation counts are
// deterministic, so the tolerance is tight). -max-slower bounds the
// ns/op increase; 0 disables it (wall-clock is noisy across CI hosts, so
// callers opt in with a loose bound). -max-tps-drop bounds the txn/s
// decrease against the baseline; 0 disables it (used to keep the
// disabled-telemetry commit path from quietly taxing throughput).
//
// Baselines are compared like-for-like on core count: a run benched at
// GOMAXPROCS=4 must not be judged against numbers recorded at
// GOMAXPROCS=1 (the sharded engine makes the two genuinely different
// machines). -gomaxprocs N restricts the baseline to runs recorded at N;
// the default (0) uses this process's GOMAXPROCS. -gomaxprocs -1 accepts
// any recorded run (the pre-shard behavior).
//
// Multi-core scaling is guarded directly, without a recorded baseline:
//
//	GOMAXPROCS=1 go test -bench 'LiveCommit/clients=32' ... | tee /tmp/1core.txt
//	GOMAXPROCS=4 go test -bench 'LiveCommit/clients=32' ... | benchguard -scale-base /tmp/1core.txt -min-scale 1.8
//
// compares the txn/s of every benchmark present in both outputs and
// fails if current/base < min-scale; both runs happen on the same host
// in the same CI job, so the ratio is noise-resistant in a way absolute
// numbers are not.
//
// Reclustering's throughput recovery is guarded the same baseline-free
// way: benchmarks that report both "early-txn/s" and "late-txn/s" (the
// interleaved false-sharing workload before and after a recluster round)
// are checked with
//
//	go test -bench ReclusterRecovery -run '^$' ./internal/live/ | benchguard -min-recovery-ratio 1.5
//
// which fails if late/early falls below the floor for any such
// benchmark. Both phases run in the same process on the same host, so
// like -scale-base the ratio needs no recorded baseline.
//
// -record FILE appends stdin's parsed measurements to a benchjson file
// (stamped with this process's GOMAXPROCS/NumCPU and -note), so the run
// that passed the guard becomes the next baseline candidate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/benchjson"
)

// benchFile mirrors the slice of the benchjson file that benchguard
// reads: runs, each optionally carrying a benchmarks map.
type benchFile struct {
	Runs []struct {
		Timestamp  string `json:"timestamp"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Benchmarks map[string]struct {
			NsPerOp     float64 `json:"ns_per_op"`
			BytesPerOp  float64 `json:"bytes_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
			OpsPerSec   float64 `json:"ops_per_sec"`
			P99Ns       float64 `json:"p99_ns"`
			TTFCNs      float64 `json:"ttfc_ns"`
		} `json:"benchmarks"`
	} `json:"runs"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	nsPerOp   float64
	bytesOp   float64
	allocs    float64 // -1 when the line had no -benchmem columns
	opsPerSec float64 // the live benches' "txn/s" ReportMetric column
	p99Ns     float64 // "p99-commit-ns"
	ttfcNs    float64 // "ttfc-ns": the recovery bench's time-to-first-commit
	earlyTPS  float64 // "early-txn/s": throughput before reclustering engages
	lateTPS   float64 // "late-txn/s": throughput after the recluster round
	procs     int     // the -N name suffix: the run's GOMAXPROCS
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_figures.json", "baseline file")
	maxRegress := flag.Float64("max-regress", 5.0, "max allowed allocs/op regression, percent")
	maxSlower := flag.Float64("max-slower", 0, "max allowed ns/op regression, percent (0 disables)")
	maxTPSDrop := flag.Float64("max-tps-drop", 0, "max allowed txn/s drop vs baseline, percent (0 disables)")
	gomaxprocs := flag.Int("gomaxprocs", 0,
		"only compare against baseline runs recorded at this GOMAXPROCS (0 = this process's; -1 = any)")
	scaleBase := flag.String("scale-base", "",
		"bench output file to compute txn/s scaling against (skips the -baseline comparison)")
	minScale := flag.Float64("min-scale", 0,
		"with -scale-base: fail if current txn/s / base txn/s < this for any shared benchmark")
	minRecovery := flag.Float64("min-recovery-ratio", 0,
		"fail if late-txn/s / early-txn/s < this for any benchmark reporting both "+
			"(skips the -baseline comparison; the ratio is within-run, like -scale-base)")
	record := flag.String("record", "",
		"append stdin's parsed measurements to this benchjson file after the checks pass")
	note := flag.String("note", "", "label recorded with -record (what changed)")
	flag.Parse()

	current, err := parseBenchOutput(os.Stdin, true)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results on stdin (did the bench run?)"))
	}

	failed := false
	switch {
	case *minRecovery > 0:
		failed = checkRecovery(current, *minRecovery)
	case *scaleBase != "":
		failed = checkScaling(*scaleBase, current, *minScale)
	default:
		failed = checkBaseline(*baselinePath, current, *maxRegress, *maxSlower, *maxTPSDrop, *gomaxprocs)
	}
	if !failed && *record != "" {
		if err := recordRuns(*record, current, *note); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkBaseline compares current against the latest recorded like-for-like
// run in the benchjson file; returns true on regression.
func checkBaseline(path string, current map[string]measurement, maxRegress, maxSlower, maxTPSDrop float64, procsWant int) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal(fmt.Errorf("parse %s: %w", path, err))
	}
	if procsWant == 0 {
		procsWant = runtime.GOMAXPROCS(0)
	}
	// Latest matching run that recorded a given benchmark wins. Runs
	// recorded before the gomaxprocs field existed (0) always match, so
	// old baselines keep guarding until like-for-like ones land.
	baseAllocs := map[string]float64{}
	baseNs := map[string]float64{}
	baseTPS := map[string]float64{}
	matched := 0
	for _, run := range bf.Runs {
		if procsWant > 0 && run.GOMAXPROCS != 0 && run.GOMAXPROCS != procsWant {
			continue
		}
		matched++
		for name, b := range run.Benchmarks {
			baseAllocs[name] = b.AllocsPerOp
			baseNs[name] = b.NsPerOp
			baseTPS[name] = b.OpsPerSec
		}
	}
	if len(baseAllocs) == 0 {
		fatal(fmt.Errorf("no benchmark baselines in %s (runs matching gomaxprocs=%d: %d)",
			path, procsWant, matched))
	}

	failed := false
	for name, m := range current {
		base, ok := baseAllocs[name]
		if !ok {
			fmt.Printf("benchguard: %s: no baseline, skipping (%.0f allocs/op now)\n", name, m.allocs)
			continue
		}
		if m.allocs >= 0 {
			deltaPct := (m.allocs - base) / base * 100
			status := "ok"
			if deltaPct > maxRegress {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("benchguard: %-50s %10.0f allocs/op (baseline %.0f, %+.2f%%) %s\n",
				name, m.allocs, base, deltaPct, status)
		}
		if maxSlower > 0 {
			if bns := baseNs[name]; bns > 0 && m.nsPerOp > 0 {
				deltaPct := (m.nsPerOp - bns) / bns * 100
				status := "ok"
				if deltaPct > maxSlower {
					status = "FAIL"
					failed = true
				}
				fmt.Printf("benchguard: %-50s %10.0f ns/op     (baseline %.0f, %+.2f%%) %s\n",
					name, m.nsPerOp, bns, deltaPct, status)
			}
		}
		if maxTPSDrop > 0 {
			if btps := baseTPS[name]; btps > 0 && m.opsPerSec > 0 {
				dropPct := (btps - m.opsPerSec) / btps * 100
				status := "ok"
				if dropPct > maxTPSDrop {
					status = "FAIL"
					failed = true
				}
				fmt.Printf("benchguard: %-50s %10.0f txn/s     (baseline %.0f, %+.2f%%) %s\n",
					name, m.opsPerSec, btps, -dropPct, status)
			}
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr,
			"benchguard: regression beyond allowed bounds (allocs/op > %.1f%%, ns/op > %.1f%%, or txn/s drop > %.1f%%)\n",
			maxRegress, maxSlower, maxTPSDrop)
	}
	return failed
}

// checkScaling compares current txn/s against the bench output recorded
// in baseFile (same benchmarks, different GOMAXPROCS) and fails when the
// ratio falls below minScale; returns true on failure.
func checkScaling(baseFile string, current map[string]measurement, minScale float64) bool {
	f, err := os.Open(baseFile)
	if err != nil {
		fatal(err)
	}
	base, err := parseBenchOutput(f, false)
	f.Close()
	if err != nil {
		fatal(err)
	}
	failed := false
	compared := 0
	for name, cur := range current {
		b, ok := base[name]
		if !ok || b.opsPerSec <= 0 || cur.opsPerSec <= 0 {
			continue
		}
		compared++
		ratio := cur.opsPerSec / b.opsPerSec
		status := "ok"
		if ratio < minScale {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchguard: %-50s %9.0f txn/s at GOMAXPROCS=%d vs %.0f at GOMAXPROCS=%d: %.2fx (want >= %.2fx) %s\n",
			name, cur.opsPerSec, cur.procs, b.opsPerSec, b.procs, ratio, minScale, status)
	}
	if compared == 0 {
		fatal(fmt.Errorf("no shared txn/s benchmarks between stdin and %s", baseFile))
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: multi-core scaling below %.2fx\n", minScale)
	}
	return failed
}

// checkRecovery verifies the reclustering throughput-recovery floor:
// every benchmark reporting both early-txn/s and late-txn/s must show
// late/early >= minRatio; returns true on failure. Both phases ran in
// the same process, so no recorded baseline is consulted.
func checkRecovery(current map[string]measurement, minRatio float64) bool {
	failed := false
	compared := 0
	for name, m := range current {
		if m.earlyTPS <= 0 || m.lateTPS <= 0 {
			continue
		}
		compared++
		ratio := m.lateTPS / m.earlyTPS
		status := "ok"
		if ratio < minRatio {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchguard: %-50s %9.0f -> %.0f txn/s after reclustering: %.2fx (want >= %.2fx) %s\n",
			name, m.earlyTPS, m.lateTPS, ratio, minRatio, status)
	}
	if compared == 0 {
		fatal(fmt.Errorf("no benchmarks reporting early-txn/s and late-txn/s on stdin"))
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: reclustering throughput recovery below %.2fx\n", minRatio)
	}
	return failed
}

// recordRuns appends the parsed measurements as one benchjson run.
func recordRuns(path string, current map[string]measurement, note string) error {
	run := benchjson.NewRun()
	run.Note = note
	run.Benchmarks = make(map[string]benchjson.Benchmark, len(current))
	for name, m := range current {
		b := benchjson.Benchmark{
			NsPerOp:        m.nsPerOp,
			OpsPerSec:      m.opsPerSec,
			P99Ns:          m.p99Ns,
			TTFCNs:         m.ttfcNs,
			EarlyOpsPerSec: m.earlyTPS,
			LateOpsPerSec:  m.lateTPS,
		}
		if m.allocs >= 0 {
			b.AllocsPerOp = m.allocs
			b.BytesPerOp = m.bytesOp
		}
		run.Benchmarks[name] = b
	}
	if err := benchjson.Append(path, run); err != nil {
		return err
	}
	fmt.Printf("benchguard: recorded %d benchmarks to %s (gomaxprocs=%d)\n",
		len(run.Benchmarks), path, run.GOMAXPROCS)
	return nil
}

// parseBenchOutput extracts "BenchmarkName-N  iters  X ns/op ..." lines
// (including ReportMetric columns like "txn/s" and "p99-commit-ns"),
// keyed by the benchmark name with the -GOMAXPROCS suffix stripped
// (baselines are recorded without it); the suffix itself is kept as the
// measurement's procs.
func parseBenchOutput(f io.Reader, echo bool) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if echo {
			fmt.Println(line) // echo so CI logs keep the raw bench output
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		m := measurement{allocs: -1}
		for i := 1; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			bad := func(what string) error {
				return fmt.Errorf("bad %s in %q: %w", what, line, err)
			}
			switch fields[i] {
			case "allocs/op":
				if err != nil {
					return nil, bad("allocs/op")
				}
				m.allocs = v
			case "ns/op":
				if err != nil {
					return nil, bad("ns/op")
				}
				m.nsPerOp = v
			case "B/op":
				if err != nil {
					return nil, bad("B/op")
				}
				m.bytesOp = v
			case "txn/s":
				if err != nil {
					return nil, bad("txn/s")
				}
				m.opsPerSec = v
			case "p99-commit-ns":
				if err != nil {
					return nil, bad("p99-commit-ns")
				}
				m.p99Ns = v
			case "ttfc-ns":
				if err != nil {
					return nil, bad("ttfc-ns")
				}
				m.ttfcNs = v
			case "early-txn/s":
				if err != nil {
					return nil, bad("early-txn/s")
				}
				m.earlyTPS = v
			case "late-txn/s":
				if err != nil {
					return nil, bad("late-txn/s")
				}
				m.lateTPS = v
			}
		}
		if m.allocs < 0 && m.nsPerOp == 0 {
			continue // not a result line
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the -GOMAXPROCS suffix iff numeric.
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				m.procs = procs
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
