package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// sim_sweep runs no live server: internal/core + internal/sim +
// internal/model do all the work, so a core change that speeds the live
// engine but slows the simulator (or the reverse) shows here, and a
// live-only change predicts no movement. It is not listed in
// BENCHMARK.json — the contract has every listed workload report every
// end-to-end metric, and a simulator has no commit latency or restart —
// so it runs with `-workload sim_sweep` and in the all-workloads mode,
// and the driver sees the simulator through sim.probe_cell_ms instead.

const simWorkload = "sim_sweep"

// simWriteProb and simOpts size the sweep: HOTCOLD, HICON and
// Interleaved-PRIVATE at write probability 0.15 x the five protocols (15
// cells), virtual warm-up/measure sized once so one sweep takes a few
// seconds on a 2-core host and then frozen.
const simWriteProb = 0.15

var simOpts = experiments.Opts{Warmup: 10, Measure: 80, Batches: 4}

var simMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.wall_s_per_cell", Unit: "s", Better: "lower"},
	{Name: "sim.slowest_cell_share", Unit: "share", Better: "lower"},
}

func simSweeps() []*experiments.Sweep {
	mk := func(id string, spec func(wp float64) workload.Spec) *experiments.Sweep {
		return &experiments.Sweep{ID: id, Spec: spec, WriteProbs: []float64{simWriteProb}}
	}
	return []*experiments.Sweep{
		mk("hotcold", func(wp float64) workload.Spec { return workload.HotColdSpec(workload.LowLocality, wp) }),
		mk("hicon", func(wp float64) workload.Spec { return workload.HiConSpec(workload.LowLocality, wp) }),
		mk("interleaved", workload.InterleavedPrivateSpec),
	}
}

// sweep is one run of the 15 cells: the commit count and wall time of
// every cell (in cell order), the sweep's wall time, and HOTCOLD's
// throughput by protocol.
type sweep struct {
	commits  []int64
	cellWall []time.Duration
	wall     time.Duration
	hotcold  map[core.Protocol]float64
}

func sweepOnce(opts experiments.Opts) (*sweep, error) {
	sweeps := simSweeps()
	endOf := map[string]time.Duration{}
	var ends []time.Duration // in completion order, which is time order
	start := time.Now()
	rep := experiments.RunSweeps(sweeps, opts, experiments.Hooks{
		Cell: func(done, total int, id string) {
			endOf[id] = time.Since(start)
			ends = append(ends, endOf[id])
		},
	})
	if len(rep.Errors) > 0 {
		return nil, rep.Errors[0]
	}
	sw := &sweep{wall: rep.Wall, hotcold: map[core.Protocol]float64{}}
	for si, res := range rep.Results {
		for _, p := range res.Protocols {
			r := res.Rows[0].Res[p]
			// Workers take cells in order, so cell i began when the
			// (i-jobs)-th completion freed a worker.
			began := time.Duration(0)
			if i := len(sw.commits); i >= rep.Jobs {
				began = ends[i-rep.Jobs]
			}
			id := experiments.Cell{SweepID: sweeps[si].ID, WriteProb: simWriteProb, Proto: p}.ID()
			sw.cellWall = append(sw.cellWall, endOf[id]-began)
			sw.commits = append(sw.commits, r.Commits)
			if sweeps[si].ID == "hotcold" {
				sw.hotcold[p] = r.Throughput
			}
		}
	}
	return sw, nil
}

// runSim repeats the sweep with one seed until the window is used (at
// least twice) and checks that the simulator is exactly repeatable and
// orders HOTCOLD as EXPERIMENTS.md does.
func runSim(seed int64, seconds int) (*liveResult, error) {
	res := &liveResult{m: metrics{}}
	t0 := time.Now()
	opts := simOpts
	opts.Seed = seed
	opts.Jobs = numClients
	// Set-up: one short sweep pages the simulator in.
	warm := opts
	warm.Warmup, warm.Measure = 1, 2
	if _, err := sweepOnce(warm); err != nil {
		return nil, err
	}
	res.m["setup_s"] = (startup + time.Since(t0)).Seconds()

	var first []int64
	var rates, perCell, slowest []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		sw, err := sweepOnce(opts)
		if err != nil {
			return nil, err
		}
		res.attempted += len(sw.commits)
		var sum int64
		for i, c := range sw.commits {
			sum += c
			if first != nil && first[i] != c {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("cell %d committed %d, then %d: the simulator is not repeatable", i, first[i], c))
			}
		}
		if first == nil {
			first = sw.commits
			if sw.hotcold[core.PSAA] < sw.hotcold[core.PSOO] {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("HOTCOLD throughput PS-AA %.2f < PS-OO %.2f", sw.hotcold[core.PSAA], sw.hotcold[core.PSOO]))
			}
		}
		var worst, total time.Duration
		for _, d := range sw.cellWall {
			total += d
			worst = max(worst, d)
		}
		rates = append(rates, float64(sum)/sw.wall.Seconds())
		perCell = append(perCell, total.Seconds()/float64(len(sw.cellWall)))
		slowest = append(slowest, worst.Seconds()/sw.wall.Seconds())
	}
	res.m["sim_commits_per_s"] = median(rates)
	res.m["peak_rss_mb"] = peakRSSMB()
	res.m["sim.wall_s_per_cell"] = median(perCell)
	res.m["sim.slowest_cell_share"] = median(slowest)
	res.notes = append(res.notes, fmt.Sprintf("%d sweeps of %d cells on %d workers", len(rates), len(first), numClients))
	return res, nil
}
