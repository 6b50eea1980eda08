package main

import (
	"math"
	"sort"
	"syscall"
)

// metricDef names one metric the program emits. The two tables below are
// the single source of the names: BENCHMARK.json must list exactly these
// (smoke_test.go checks it), and README.md's glossary follows them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Moves says which end-to-end metric on which workload the layer
	// metric is predicted to move (per-layer metrics only); it is printed
	// beside the measured value in the traced pass.
	Moves string
}

// endToEnd is what a caller of the live system sees. Every live workload
// reports every one of them, untraced. txn_p50_ms, commit_p50_ms and
// commit_p99_ms are measured the same way but listed under perLayer
// (demoted for spread).
// The unlisted hotcold_durable adds restartMetric.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "txn_per_s", Unit: "1/s", Better: "higher"},
	{Name: "txn_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// restartMetric is OpenServer on the crashed directory until the first
// new commit is acknowledged. Only a SyncWAL workload has a log to replay.
var restartMetric = metricDef{Name: "restart_s", Unit: "s", Better: "lower"}

// perLayer is the traced pass: driver spans, counter deltas over the
// timed window, and the isolated probes. Layer = module name.
var perLayer = []metricDef{
	{"workload.next_txn_us", "us", "lower", "none; generator cost, must stay < 2% of txn_p50_ms"},

	{"live.client.read_hit_ns", "ns", "lower", "txn_per_s, txn_p50_ms on hotcold"},
	{"live.client.read_miss_us", "us", "lower", "txn_per_s, txn_p50_ms on uniform_fetch"},
	{"live.client.write_us", "us", "lower", "txn_p50_ms on hotcold, interleaved_sharing"},
	{"live.client.commit_us", "us", "lower", "commit_p50_ms everywhere"},
	{"live.client.cache_hit_share", "share", "higher", "txn_per_s on hotcold (validity: > 0.5 there, < 0.5 on uniform_fetch)"},
	{"live.client.fetches_per_txn", "count", "lower", "txn_p50_ms on uniform_fetch"},

	{"core.read_reqs_per_txn", "count", "lower", "txn_p50_ms on uniform_fetch"},
	{"core.write_reqs_per_txn", "count", "lower", "txn_p50_ms on hotcold, interleaved_sharing"},
	{"core.callbacks_per_txn", "count", "lower", "txn_per_s, txn_p99_ms on interleaved_sharing; ~0 on uniform_fetch"},
	{"core.busy_replies_per_txn", "count", "lower", "txn_p99_ms on interleaved_sharing"},
	{"core.deesc_per_txn", "count", "lower", "txn_per_s on interleaved_sharing"},
	{"core.page_grants_per_txn", "count", "higher", "txn_per_s on hotcold (page grants save write requests)"},
	{"core.obj_grants_per_txn", "count", "lower", "txn_per_s on interleaved_sharing"},
	{"core.deadlocks_per_ktxn", "count", "lower", "txn_p99_ms on interleaved_sharing"},
	{"core.abort_share", "share", "lower", "txn_p99_ms on interleaved_sharing"},
	{"core.lock_wait_share", "share", "lower", "txn_per_s, txn_p99_ms on interleaved_sharing; ~0 on uniform_fetch"},
	{"core.locktab.grant_release_ns", "ns", "lower", "txn_per_s on hotcold"},
	{"core.copytab.register_holders_ns", "ns", "lower", "txn_per_s on hotcold, uniform_fetch"},
	{"core.cache.install_evict_ns", "ns", "lower", "txn_per_s on uniform_fetch"},
	{"core.engine.read_handle_ns", "ns", "lower", "txn_per_s on uniform_fetch; sim.probe_cell_ms"},
	{"core.engine.commit_handle_ns", "ns", "lower", "txn_per_s on hotcold; sim.probe_cell_ms"},

	{"live.wire.pipe_rtt_ns", "ns", "lower", "txn_p50_ms on the pipe workloads (small)"},
	{"live.wire.tcp_control_rtt_us", "us", "lower", "txn_p50_ms on uniform_fetch"},
	{"live.wire.tcp_page_rtt_us", "us", "lower", "txn_p50_ms on uniform_fetch"},
	{"live.wire.tcp_commit_rtt_us", "us", "lower", "commit_p50_ms on uniform_fetch"},

	{"live.server.read_miss_rtt_us.pipe", "us", "lower", "txn_p50_ms on hotcold, interleaved_sharing"},
	{"live.server.read_miss_rtt_us.goroutine", "us", "lower", "txn_p50_ms on uniform_fetch"},
	{"live.server.read_miss_rtt_us.reactor", "us", "lower", "none today; the reactor - goroutine gap is ROADMAP item 3's evidence"},
	{"live.server.commit_rtt_us.nosync", "us", "lower", "commit_p50_ms on hotcold"},
	{"live.server.commit_rtt_us.sync", "us", "lower", "commit_p50_ms on hotcold_durable"},
	{"live.server.engine_lock_wait_share", "share", "lower", "txn_per_s on hotcold, interleaved_sharing"},
	{"live.server.handle_us_per_txn", "us", "lower", "txn_per_s on hotcold, interleaved_sharing"},
	{"live.server.checkpoint_ms", "ms", "lower", "commit_p99_ms on hotcold_durable (checkpoint stalls)"},
	{"live.server.checkpoints", "count", "lower", "commit_p99_ms on hotcold_durable"},

	{"live.wal.bytes_per_user_byte", "ratio", "lower", "txn_per_s, restart_s on hotcold_durable"},
	{"live.wal.commits_per_fsync", "count", "higher", "txn_per_s on hotcold_durable"},
	{"live.wal.fsync_us", "us", "lower", "commit_p50_ms on hotcold_durable; unmoved on hotcold"},
	{"live.wal.append_us", "us", "lower", "commit_p50_ms on hotcold and hotcold_durable"},
	{"live.wal.sync_wait_share", "share", "lower", "commit_p50_ms, txn_per_s on hotcold_durable; ~0 on hotcold"},
	{"live.wal.replay_mb_per_s", "MB/s", "higher", "restart_s on hotcold_durable"},

	{"live.store.read_page_ns", "ns", "lower", "txn_p50_ms on uniform_fetch"},
	{"live.store.write_obj_ns", "ns", "lower", "commit_p50_ms on hotcold"},
	{"live.store.flush_ms_per_kpage", "ms", "lower", "restart_s; commit_p99_ms on hotcold_durable via checkpoints"},
	{"live.store.flush_pages_per_txn", "count", "lower", "commit_p99_ms on hotcold_durable via checkpoints"},

	{"sim.probe_cell_ms", "ms", "lower", "sim_commits_per_s on sim_sweep; none on the live workloads"},

	{"obs.hist_observe_ns", "ns", "lower", "none today; price list for ROADMAP item 5"},
	{"obs.heat_disabled_ns", "ns", "lower", "none today; price list for ROADMAP item 5"},

	{"proc.cpu_us_per_txn", "us", "lower", "txn_per_s on hotcold, interleaved_sharing; not on hotcold_durable"},
	{"proc.allocs_per_txn", "count", "lower", "txn_per_s on hotcold"},
	{"proc.alloc_bytes_per_txn", "B", "lower", "txn_per_s on uniform_fetch; peak_rss_mb"},
	{"proc.gc_pause_share", "share", "lower", "txn_p99_ms on hotcold"},

	{"trace.coverage_share", "share", "higher", "none; must be >= 0.95 or the spans miss time"},
	{"trace.overhead_share", "share", "lower", "none; what the traced slices lost against the untraced ones"},

	// Measured like the end-to-end metrics (untraced slices) but demoted
	// to this list for run-to-run spread; see README "Bounds".
	{"txn_p50_ms", "ms", "lower", "demoted end-to-end metric: spread 0.16-0.22 on interleaved_sharing"},
	{"commit_p50_ms", "ms", "lower", "demoted end-to-end metric: spread 0.14-0.29 on interleaved_sharing, uniform_fetch"},
	{"commit_p99_ms", "ms", "lower", "demoted end-to-end metric: spread 0.14-0.16 on uniform_fetch"},
}

// metrics is one run's named values.
type metrics map[string]float64

// ratio returns sum/n, or 0 when n is 0 (a layer that did no work).
func ratio(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

// percentile returns the p-th percentile (0..100) of sorted ns samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartile returns the k-th quartile (1 or 3) of v by nearest rank.
func quartile(v []float64, k int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(k*len(s)+3)/4-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3-Q1)/median with Python's
// statistics.quantiles(values, n=4) ("exclusive") quartiles — the
// statistic the driver applies to ten runs.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is user+system CPU time consumed by the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
