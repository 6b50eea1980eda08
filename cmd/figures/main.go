// Command figures regenerates every table and figure of the paper's
// evaluation section (Figures 3-14 plus the Section 5.6.2 parameter-space
// checks), writing text tables and CSV series under an output directory.
//
// Usage:
//
//	figures [-out figures] [-only fig3,fig9] [-quick] [-seed N] [-clients]
//	        [-jobs N]
//
// Full mode uses the recorded experiment durations (30s warmup + 120s
// measured virtual time per run); -quick cuts both for a fast smoke pass.
//
// Every (sweep, write-probability, protocol) cell is an independent
// deterministic simulation, so all cells of all selected sweeps are
// dispatched together on a worker pool (-jobs, default GOMAXPROCS).
// Outputs are byte-identical for every worker count, including -jobs 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

func main() {
	outDir := flag.String("out", "figures", "output directory")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "short runs (smoke mode)")
	seed := flag.Int64("seed", 42, "simulation seed")
	clients := flag.Bool("clients", false, "also run the client-scaling experiment")
	detail := flag.Bool("detail", true, "write per-run detail files")
	jobs := flag.Int("jobs", 0, "simulation worker count (0 = GOMAXPROCS)")
	flag.Parse()

	opts := experiments.DefaultOpts()
	if *quick {
		opts = experiments.QuickOpts()
	}
	opts.Seed = *seed
	opts.Jobs = *jobs

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	// Figure 5 is analytic.
	if want("fig5") {
		probs := []float64{0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50}
		txt := experiments.RenderFig5(probs)
		fmt.Println(txt)
		write(*outDir, "fig5.txt", txt)
		write(*outDir, "fig5.csv", experiments.Fig5CSV(probs))
	}

	var sweeps []*experiments.Sweep
	all := experiments.Catalogue()
	if *clients {
		all = append(all, experiments.ClientScalingSweep(0.1, []int{1, 5, 10, 15, 20, 25})...)
	}
	for _, s := range all {
		if want(s.ID) {
			sweeps = append(sweeps, s)
		}
	}
	if len(selected) > 0 {
		known := map[string]bool{"fig5": true, "tab1": true}
		valid := make([]string, 0, len(all)+2)
		valid = append(valid, "fig5", "tab1")
		for _, s := range all {
			known[s.ID] = true
			valid = append(valid, s.ID)
		}
		for id := range selected {
			if !known[id] {
				fatal(fmt.Errorf("unknown -only id %q; valid ids: %s", id, strings.Join(valid, ", ")))
			}
		}
	}

	// All cells of all selected sweeps fan out over one worker pool;
	// progress goes through a single renderer so concurrent completions
	// never garble the \r status line.
	prog := &progressRenderer{out: os.Stderr}
	report := experiments.RunSweeps(sweeps, opts, experiments.Hooks{
		Cell: prog.cell,
		SweepDone: func(t experiments.SweepTiming) {
			prog.line(fmt.Sprintf("%s done: %d cells in %v",
				t.ID, t.Cells, t.Wall.Round(time.Millisecond)))
		},
	})
	prog.clear()

	for _, ce := range report.Errors {
		fmt.Fprintf(os.Stderr, "figures: %v\n%s", ce, ce.Stack)
	}

	for _, res := range report.Results {
		s := res.Sweep
		txt := res.Render()
		fmt.Println(txt)
		write(*outDir, s.ID+".txt", txt)
		write(*outDir, s.ID+".csv", res.CSV())
		if *detail {
			write(*outDir, s.ID+"_detail.txt", res.Detail())
		}
	}
	fmt.Fprintf(os.Stderr, "all experiments done: %d cells on %d workers in %v (%.2f cells/sec); outputs in %s/\n",
		report.Cells, report.Jobs, report.Wall.Round(time.Second),
		cellsPerSec(report.Cells, report.Wall), *outDir)

	// Table 1 / Table 2 are parameter tables; emit them for completeness.
	if want("tab1") || len(selected) == 0 {
		write(*outDir, "tab1.txt", table1())
	}

	if len(report.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d cell(s) failed\n", len(report.Errors))
		os.Exit(1)
	}
}

// progressRenderer serializes all status output on one \r-overwritten
// line, so concurrently-finishing sweeps never interleave mid-line.
type progressRenderer struct {
	mu     sync.Mutex
	out    *os.File
	active bool // a status line is currently displayed
}

func (r *progressRenderer) cell(done, total int, msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.out, "\r%-70s", fmt.Sprintf("[%d/%d] %s", done, total, msg))
	r.active = true
}

// line prints a persistent line, replacing any status line in place.
func (r *progressRenderer) line(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.out, "\r%-70s\n", s)
	r.active = false
}

func (r *progressRenderer) clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active {
		fmt.Fprintf(r.out, "\r%-70s\r", "")
		r.active = false
	}
}

func cellsPerSec(cells int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(cells) / wall.Seconds()
}

func table1() string {
	return `Table 1 — system and overhead parameter settings (see DESIGN.md §3)
ClientCPU          15 MIPS
ServerCPU          30 MIPS
ClientBufSize      25% of DB
ServerBufSize      50% of DB
ServerDisks        2
Min/MaxDiskTime    10/30 ms
NetworkBandwidth   80 Mbps
NumClients         10
PageSize           4096 bytes
DatabaseSize       1250 pages
ObjectsPerPage     20
FixedMsgInst       20000
PerByteMsgInst     10000 per 4KB
ControlMsgSize     256 bytes
LockInst           300  [reconstructed]
RegisterCopyInst   300
DiskOverheadInst   5000 [reconstructed]
CopyMergeInst      300 per object
ObjInst            10000 per object read, x2 for writes [reconstructed]
`
}

func write(dir, name, content string) {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
