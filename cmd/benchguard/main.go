// Command benchguard checks `go test -bench` output on stdin and exits
// non-zero on regression. It has two checks.
//
// Allocations against a recorded baseline: allocation counts are
// deterministic, so the tolerance is tight.
//
//	go test -bench 'Fig03|ClientTxnFootprint' -benchmem -run '^$' . ./internal/core/ | benchguard -baseline BENCH_figures.json -max-regress 5
//
// fails if any benchmark's allocs/op exceeds its baseline by more than
// -max-regress percent; a baseline of 0 fails on any allocation. The
// baseline is the latest run in the baseline file that recorded the
// benchmark at this process's GOMAXPROCS (how often a sync.Pool misses,
// and so allocs/op, depends on the P count); benchmarks with no baseline
// are reported and skipped.
//
// Throughput as a within-run ratio, without a recorded baseline:
//
//	GOMAXPROCS=1 go test -bench 'LiveCommit/clients=32' ... | tee /tmp/1core.txt
//	GOMAXPROCS=4 go test -bench 'LiveCommit/clients=32' ... | benchguard -scale-base /tmp/1core.txt -min-scale 1.8
//
// compares the txn/s of every benchmark present in both outputs and
// fails if current/base < min-scale; both runs happen on the same host
// in the same CI job, so the ratio is noise-resistant in a way absolute
// numbers are not.
//
// -record FILE appends stdin's parsed measurements to a baseline file
// (stamped with this process's GOMAXPROCS/NumCPU and -note) once the check
// passes; that is how a new baseline enters BENCH_figures.json.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// measurement is one parsed benchmark result line.
type measurement struct {
	nsPerOp   float64
	bytesOp   float64
	allocs    float64 // -1 when the line had no -benchmem columns
	opsPerSec float64 // the live benches' "txn/s" ReportMetric column
	procs     int     // the -N name suffix: the run's GOMAXPROCS (go test omits it at 1)
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_figures.json", "baseline file")
	maxRegress := flag.Float64("max-regress", 5.0, "max allowed allocs/op regression, percent")
	scaleBase := flag.String("scale-base", "",
		"bench output file to compute txn/s scaling against (skips the -baseline comparison)")
	minScale := flag.Float64("min-scale", 0,
		"with -scale-base: fail if current txn/s / base txn/s < this for any shared benchmark")
	record := flag.String("record", "",
		"append stdin's parsed measurements to this baseline file after the checks pass")
	note := flag.String("note", "", "label recorded with -record (what changed)")
	flag.Parse()

	current, err := parseBenchOutput(os.Stdin, true)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results on stdin (did the bench run?)"))
	}

	var failed bool
	if *scaleBase != "" {
		f, err := os.Open(*scaleBase)
		if err != nil {
			fatal(err)
		}
		base, err := parseBenchOutput(f, false)
		f.Close()
		if err != nil {
			fatal(err)
		}
		failed, err = checkScaling(os.Stdout, base, current, *minScale)
		if err != nil {
			fatal(fmt.Errorf("%w in %s", err, *scaleBase))
		}
	} else {
		runs, err := loadRuns(*baselinePath)
		if err != nil {
			fatal(err)
		}
		failed, err = checkBaseline(os.Stdout, runs, current, *maxRegress, runtime.GOMAXPROCS(0))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *baselinePath, err))
		}
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

// checkBaseline compares current's allocs/op against the latest run
// recorded at procs GOMAXPROCS that holds each benchmark; returns true on
// regression.
func checkBaseline(w io.Writer, runs []recordedRun, current map[string]measurement, maxRegress float64, procs int) (bool, error) {
	// Later runs overwrite earlier ones. Runs recorded before the
	// gomaxprocs field existed (0) match any P count.
	baseAllocs := map[string]float64{}
	for _, run := range runs {
		if run.GOMAXPROCS != 0 && run.GOMAXPROCS != procs {
			continue
		}
		for name, b := range run.Benchmarks {
			baseAllocs[name] = b.AllocsPerOp
		}
	}
	if len(baseAllocs) == 0 {
		return false, fmt.Errorf("no benchmark baselines recorded at gomaxprocs=%d", procs)
	}

	failed := false
	for name, m := range current {
		base, ok := baseAllocs[name]
		if !ok {
			fmt.Fprintf(w, "benchguard: %s: no baseline, skipping (%.0f allocs/op now)\n", name, m.allocs)
			continue
		}
		if m.allocs < 0 {
			continue
		}
		status := "ok"
		if m.allocs-base > base*maxRegress/100 {
			status = "FAIL"
			failed = true
		}
		against := fmt.Sprintf("baseline %.0f, %+.2f%%", base, (m.allocs-base)/base*100)
		if base == 0 {
			against = "baseline 0: any allocation fails"
		}
		fmt.Fprintf(w, "benchguard: %-50s %10.0f allocs/op (%s) %s\n", name, m.allocs, against, status)
	}
	if failed {
		fmt.Fprintf(w, "benchguard: allocs/op regression beyond %.1f%%\n", maxRegress)
	}
	return failed, nil
}

// checkScaling compares current txn/s against base's (same benchmarks,
// a different configuration) and fails when the ratio falls below
// minScale; returns true on failure.
func checkScaling(w io.Writer, base, current map[string]measurement, minScale float64) (bool, error) {
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
		fmt.Fprintf(w, "benchguard: %-50s %9.0f txn/s at GOMAXPROCS=%d vs %.0f at GOMAXPROCS=%d: %.2fx (want >= %.2fx) %s\n",
			name, cur.opsPerSec, cur.procs, b.opsPerSec, b.procs, ratio, minScale, status)
	}
	if compared == 0 {
		return false, fmt.Errorf("no shared txn/s benchmarks")
	}
	if failed {
		fmt.Fprintf(w, "benchguard: txn/s ratio below %.2fx\n", minScale)
	}
	return failed, nil
}

// recordRuns appends the parsed measurements as one run.
func recordRuns(path string, current map[string]measurement, note string) error {
	run := newRun()
	run.Note = note
	run.Benchmarks = make(map[string]benchmark, len(current))
	for name, m := range current {
		b := benchmark{NsPerOp: m.nsPerOp}
		if m.allocs >= 0 {
			b.AllocsPerOp = m.allocs
			b.BytesPerOp = m.bytesOp
		}
		run.Benchmarks[name] = b
	}
	if err := appendRun(path, run); err != nil {
		return err
	}
	fmt.Printf("benchguard: recorded %d benchmarks to %s (gomaxprocs=%d)\n",
		len(run.Benchmarks), path, run.GOMAXPROCS)
	return nil
}

// parseBenchOutput extracts "BenchmarkName-N  iters  X ns/op ..." lines
// (including the "txn/s" ReportMetric column), keyed by the benchmark name
// with the -GOMAXPROCS suffix stripped (baselines are recorded without it);
// the suffix itself is kept as the measurement's procs.
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
		m := measurement{allocs: -1, procs: 1}
		for i := 1; i < len(fields); i++ {
			var dst *float64
			switch fields[i] {
			case "ns/op":
				dst = &m.nsPerOp
			case "B/op":
				dst = &m.bytesOp
			case "allocs/op":
				dst = &m.allocs
			case "txn/s":
				dst = &m.opsPerSec
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", fields[i], line, err)
			}
			*dst = v
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
