// Command bench is the repository's benchmark: the paper's workloads
// replayed closed-loop against the live server in this process, reported
// end to end (untraced) and layer by layer (-trace 1). See README.md.
//
//	bash bench/run.sh                                  # every workload, end to end
//	bash bench/run.sh -trace 1                         # every workload, per layer
//	bash bench/run.sh -workload hotcold -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -selfcheck                       # two sets must agree within the bounds
//	bash bench/run.sh -spread 10                       # re-derive bench/spread.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procStart is as close to process start as Go code gets; startup is the
// part of it spent before the first workload begins setting up.
var (
	procStart = time.Now()
	startup   time.Duration
)

// result is the last line of a single-workload run, as the benchmark
// contract wants it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all of them, then sim_sweep)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same reference strings")
	seconds := flag.Int("seconds", 20, "timed window per workload, s")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and fail unless they agree within BENCHMARK.json's bounds")
	spread := flag.Int("spread", 0, "run this many seeds per workload and rewrite spread.json with the quartile spreads")
	outDir := flag.String("out", "", "scratch and trace directory (default bench/out, or out inside bench/)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	benchDir := "."
	if _, err := os.Stat("bench/go.mod"); err == nil {
		benchDir = "bench"
	}
	if *outDir == "" {
		*outDir = benchDir + "/out"
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d C=%d clients seed=%d window=%ds trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), numClients, *seed, *seconds, *trace)
	startup = time.Since(procStart)

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(benchDir, *outDir, *seed, *seconds))
	case *spread > 0:
		os.Exit(runSpread(benchDir, *outDir, *spread, *seed, *seconds))
	}

	names := []string{*workloadName}
	if *workloadName == "" {
		names = append(liveNames(), simWorkload)
	}
	ok := true
	for _, name := range names {
		r, err := runOne(name, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		ok = ok && r.Correct
		line, err := json.Marshal(r)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its metrics by name with units.
func runOne(name string, seed int64, seconds int, trace bool, outDir string) (*result, error) {
	var res *liveResult
	var err error
	defs := endToEnd
	switch w := findLive(name); {
	case w != nil:
		if w.SyncWAL {
			defs = append(defs[:len(defs):len(defs)], restartMetric)
		}
		if res, err = runLive(w, seed, seconds, trace, outDir); err == nil && trace {
			defs = perLayer
			err = runProbes(res.m, outDir)
		}
	case name == simWorkload:
		defs = simMetrics
		res, err = runSim(seed, seconds)
	default:
		err = fmt.Errorf("unknown workload (have %v and %s)", liveNames(), simWorkload)
	}
	if err != nil {
		return nil, err
	}
	r := &result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("== %s: ops_attempted=%d ops_failed=%d\n", name, res.attempted, res.failed)
	for _, d := range defs {
		v, ok := res.m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if d.Moves != "" {
			fmt.Printf("%-40s %14.4f %-6s moves: %s\n", d.Name, v, d.Unit, d.Moves)
		} else {
			fmt.Printf("%-40s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	return r, nil
}

func liveNames() []string {
	var names []string
	for _, w := range liveWorkloads {
		names = append(names, w.Name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
