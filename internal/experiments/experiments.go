// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (Section 5) and the harness that runs
// the sweeps and renders the resulting series.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// Sweep is one experiment: a workload family swept over per-object write
// probability for a set of protocols.
type Sweep struct {
	ID    string // e.g. "fig3"
	Title string // paper caption
	// Spec builds the workload for one write probability.
	Spec func(writeProb float64) workload.Spec
	// WriteProbs is the x-axis.
	WriteProbs []float64
	// Protocols under comparison (defaults to all five).
	Protocols []core.Protocol
	// Configure optionally post-processes the model config (e.g. slow
	// network, client scaling).
	Configure func(*model.Config)
	// Normalize plots each protocol's throughput as a fraction of PS-AA's
	// (the paper's Figures 12-14).
	Normalize bool
}

// Opts controls simulation effort.
type Opts struct {
	Seed    int64
	Warmup  float64
	Measure float64
	Batches int
	// Jobs is the worker count for the parallel runner (RunSweeps /
	// RunParallel): 0 or negative means runtime.GOMAXPROCS(0). The
	// serial Sweep.Run ignores it. Worker count never affects results.
	Jobs int
}

// DefaultOpts returns the durations used for the recorded experiments.
func DefaultOpts() Opts { return Opts{Seed: 42, Warmup: 30, Measure: 120, Batches: 8} }

// QuickOpts returns shorter runs for smoke benchmarks.
func QuickOpts() Opts { return Opts{Seed: 42, Warmup: 5, Measure: 20, Batches: 4} }

// Result is one sweep's output grid.
type Result struct {
	Sweep     *Sweep
	Protocols []core.Protocol
	Rows      []Row
}

// Row is one x-axis point.
type Row struct {
	WriteProb float64
	Res       map[core.Protocol]*model.Results
}

// Run executes the sweep serially on the calling goroutine. It is the
// reference path the parallel runner (RunParallel / RunSweeps) must match
// byte for byte.
func (s *Sweep) Run(o Opts, progress func(msg string)) *Result {
	protos := s.Protocols
	if protos == nil {
		protos = core.Protocols
	}
	out := &Result{Sweep: s, Protocols: protos}
	for _, wp := range s.WriteProbs {
		row := Row{WriteProb: wp, Res: make(map[core.Protocol]*model.Results)}
		for _, proto := range protos {
			cfg := s.cellConfig(wp, proto, o)
			if progress != nil {
				progress(fmt.Sprintf("%s: %s wp=%.2f", s.ID, proto, wp))
			}
			row.Res[proto] = model.Run(cfg)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// value extracts the plotted metric for a protocol at a row. A missing
// entry (skipped protocol or failed cell) renders as NaN rather than
// panicking.
func (r *Result) value(row Row, p core.Protocol) float64 {
	res := row.Res[p]
	if res == nil {
		return math.NaN()
	}
	v := res.Throughput
	if r.Sweep.Normalize {
		base := row.Res[core.PSAA]
		if base == nil || base.Throughput == 0 {
			return math.NaN()
		}
		return v / base.Throughput
	}
	return v
}

// Render returns the sweep as an aligned text table (the analogue of the
// paper's throughput figures).
func (r *Result) Render() string {
	var b strings.Builder
	metric := "throughput (txn/sec)"
	if r.Sweep.Normalize {
		metric = "throughput normalized to PS-AA"
	}
	fmt.Fprintf(&b, "%s — %s\n%s\n", r.Sweep.ID, r.Sweep.Title, metric)
	fmt.Fprintf(&b, "%-10s", "writeProb")
	for _, p := range r.Protocols {
		fmt.Fprintf(&b, "%10s", p.String())
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10.3f", row.WriteProb)
		for _, p := range r.Protocols {
			fmt.Fprintf(&b, "%10.2f", r.value(row, p))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV returns the sweep in CSV form (one column per protocol, plus 90% CI
// half-width columns).
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("write_prob")
	for _, p := range r.Protocols {
		name := strings.ReplaceAll(p.String(), "-", "")
		fmt.Fprintf(&b, ",%s,%s_ci", name, name)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%g", row.WriteProb)
		for _, p := range r.Protocols {
			v := r.value(row, p)
			ci := math.NaN()
			if res := row.Res[p]; res != nil {
				ci = res.ThroughputCI
				if r.Sweep.Normalize {
					if base := row.Res[core.PSAA]; base != nil && base.Throughput > 0 {
						ci = ci / base.Throughput
					}
				}
			}
			fmt.Fprintf(&b, ",%.4f,%.4f", v, ci)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Detail renders auxiliary metrics (messages/commit, aborts, utilizations)
// for analysis, mirroring the paper's discussion points.
func (r *Result) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — detail\n", r.Sweep.ID)
	for _, row := range r.Rows {
		for _, p := range r.Protocols {
			res := row.Res[p]
			if res == nil {
				fmt.Fprintf(&b, "wp=%.3f %-6s (missing: cell skipped or failed)\n",
					row.WriteProb, p.String())
				continue
			}
			fmt.Fprintf(&b,
				"wp=%.3f %-6s tput=%7.2f ±%5.2f msgs/c=%6.1f aborts=%5d dl=%4d cb=%6d busy=%5d deesc=%5d pgX=%6d objX=%6d srvCPU=%.2f disk=%.2f net=%.2f\n",
				row.WriteProb, p.String(), res.Throughput, res.ThroughputCI,
				res.MsgsPerCommit, res.Aborts, res.Deadlocks, res.Callbacks,
				res.BusyReplies, res.Deescalations, res.PageGrants, res.ObjGrants,
				res.ServerCPUUtil, res.DiskUtil, res.NetUtil)
		}
	}
	return b.String()
}

// ---- Figure 5 (analytic) ----

// PageWriteProb returns the probability that a page is updated given the
// per-object write probability p and L objects accessed on the page:
// 1 - (1-p)^L. This is Figure 5's relationship.
func PageWriteProb(p float64, objsAccessed int) float64 {
	return 1 - math.Pow(1-p, float64(objsAccessed))
}

// Fig5Localities are the per-page access counts plotted in Figure 5.
var Fig5Localities = []int{1, 4, 12}

// RenderFig5 renders the analytic Figure 5 table.
func RenderFig5(writeProbs []float64) string {
	var b strings.Builder
	b.WriteString("fig5 — Per-page update probability vs. per-object write probability\n")
	fmt.Fprintf(&b, "%-10s", "writeProb")
	for _, l := range Fig5Localities {
		fmt.Fprintf(&b, "  locality=%-2d", l)
	}
	b.WriteString("\n")
	for _, wp := range writeProbs {
		fmt.Fprintf(&b, "%-10.3f", wp)
		for _, l := range Fig5Localities {
			fmt.Fprintf(&b, "  %-11.4f", PageWriteProb(wp, l))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig5CSV renders Figure 5 as CSV.
func Fig5CSV(writeProbs []float64) string {
	var b strings.Builder
	b.WriteString("write_prob")
	for _, l := range Fig5Localities {
		fmt.Fprintf(&b, ",L%d", l)
	}
	b.WriteString("\n")
	for _, wp := range writeProbs {
		fmt.Fprintf(&b, "%g", wp)
		for _, l := range Fig5Localities {
			fmt.Fprintf(&b, ",%.5f", PageWriteProb(wp, l))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---- The experiment catalogue ----

// StdWriteProbs is the x-axis used for the recorded figures.
var StdWriteProbs = []float64{0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50}

// QuickWriteProbs is a reduced x-axis for smoke benchmarks.
var QuickWriteProbs = []float64{0, 0.05, 0.15, 0.30}

// Catalogue returns every simulated sweep, keyed in DESIGN.md's
// per-experiment index. (fig5 is analytic; see RenderFig5.)
func Catalogue() []*Sweep {
	scaled := func(spec func(float64) workload.Spec) func(float64) workload.Spec {
		return func(wp float64) workload.Spec {
			return workload.Scale(spec(wp), 9, 3)
		}
	}
	hotColdLow := func(wp float64) workload.Spec { return workload.HotColdSpec(workload.LowLocality, wp) }
	uniformLow := func(wp float64) workload.Spec { return workload.UniformSpec(workload.LowLocality, wp) }
	hiconLow := func(wp float64) workload.Spec { return workload.HiConSpec(workload.LowLocality, wp) }

	return []*Sweep{
		{
			ID: "fig3", Title: "HOTCOLD workload, low page locality (30 pages/txn, 1-7 objects/page)",
			Spec: hotColdLow, WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig4", Title: "HOTCOLD workload, high page locality (10 pages/txn, 8-16 objects/page)",
			Spec:       func(wp float64) workload.Spec { return workload.HotColdSpec(workload.HighLocality, wp) },
			WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig6", Title: "UNIFORM workload, low page locality",
			Spec: uniformLow, WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig7", Title: "UNIFORM workload, high page locality",
			Spec:       func(wp float64) workload.Spec { return workload.UniformSpec(workload.HighLocality, wp) },
			WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig8", Title: "HICON workload, low page locality",
			Spec: hiconLow, WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig9", Title: "HICON workload, high page locality",
			Spec:       func(wp float64) workload.Spec { return workload.HiConSpec(workload.HighLocality, wp) },
			WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig10", Title: "PRIVATE workload, high page locality",
			Spec:       func(wp float64) workload.Spec { return workload.PrivateSpec(workload.HighLocality, wp) },
			WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig11", Title: "Interleaved PRIVATE workload (extreme false sharing)",
			Spec:       func(wp float64) workload.Spec { return workload.InterleavedPrivateSpec(wp) },
			WriteProbs: StdWriteProbs,
		},
		{
			ID: "fig12", Title: "HOTCOLD scaled up 9x (txns 3x), low locality, normalized to PS-AA",
			Spec: scaled(hotColdLow), WriteProbs: StdWriteProbs, Normalize: true,
		},
		{
			ID: "fig13", Title: "UNIFORM scaled up 9x (txns 3x), low locality, normalized to PS-AA",
			Spec: scaled(uniformLow), WriteProbs: StdWriteProbs, Normalize: true,
		},
		{
			ID: "fig14", Title: "HICON scaled up 9x (txns 3x), low locality, normalized to PS-AA",
			Spec: scaled(hiconLow), WriteProbs: StdWriteProbs, Normalize: true,
		},
		// Section 5.6.2 parameter-space checks.
		{
			ID: "x-locality1", Title: "Extreme page locality of one (30 pages/txn, 1 object/page)",
			Spec: func(wp float64) workload.Spec {
				w := workload.HotColdSpec(workload.LowLocality, wp)
				w.LocMin, w.LocMax = 1, 1
				return w
			},
			WriteProbs: StdWriteProbs,
		},
		{
			ID: "x-slownet", Title: "HOTCOLD low locality with network bandwidth divided by 10 (8 Mbps)",
			Spec: hotColdLow, WriteProbs: QuickWriteProbs,
			Configure: func(cfg *model.Config) { cfg.NetworkMbps = 8 },
		},
		{
			ID: "x-clustered", Title: "HOTCOLD low locality with clustered object access",
			Spec: func(wp float64) workload.Spec {
				w := workload.HotColdSpec(workload.LowLocality, wp)
				w.Clustered = true
				return w
			},
			WriteProbs: QuickWriteProbs,
		},
		// Section 6.1 ablation: merging concurrent page updates (PS-OO)
		// vs. disallowing them with a write token (PS-WT), under the
		// workload built to stress exactly this (Interleaved PRIVATE), with
		// PS and PS-AA as reference points.
		{
			ID: "x-wtoken", Title: "Merge (PS-OO) vs write token (PS-WT) on Interleaved PRIVATE",
			Spec:       func(wp float64) workload.Spec { return workload.InterleavedPrivateSpec(wp) },
			WriteProbs: StdWriteProbs,
			Protocols:  []core.Protocol{core.PS, core.PSOO, core.PSWT, core.PSAA},
		},
		{
			ID: "x-wtoken-hotcold", Title: "Merge vs write token on HOTCOLD low locality",
			Spec:       func(wp float64) workload.Spec { return workload.HotColdSpec(workload.LowLocality, wp) },
			WriteProbs: QuickWriteProbs,
			Protocols:  []core.Protocol{core.PS, core.PSOO, core.PSWT, core.PSAA},
		},
	}
}

// ClientScalingSweep builds the Section 5.6.2 client-scaling experiment:
// throughput vs. number of clients at a fixed write probability.
func ClientScalingSweep(writeProb float64, clients []int) []*Sweep {
	var sweeps []*Sweep
	for _, n := range clients {
		n := n
		sweeps = append(sweeps, &Sweep{
			ID:    fmt.Sprintf("x-clients-%d", n),
			Title: fmt.Sprintf("HOTCOLD low locality with %d clients, wp=%.2f", n, writeProb),
			Spec: func(wp float64) workload.Spec {
				w := workload.HotColdSpec(workload.LowLocality, wp)
				w.NumClients = n
				return w
			},
			WriteProbs: []float64{writeProb},
		})
	}
	return sweeps
}

// Find returns the sweep with the given id, or nil.
func Find(id string) *Sweep {
	for _, s := range Catalogue() {
		if s.ID == id {
			return s
		}
	}
	return nil
}
