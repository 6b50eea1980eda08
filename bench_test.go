package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/workload"
)

// The Benchmark*Fig* targets regenerate each paper figure in miniature:
// per iteration they run the figure's workload at a representative write
// probability for all five protocols and report per-protocol throughput as
// custom metrics (tps-<proto>). The full-length sweeps behind
// EXPERIMENTS.md are produced by `go run ./cmd/figures`.

const benchWriteProb = 0.15

func benchOpts() experiments.Opts {
	// Jobs 0 = GOMAXPROCS: protocol cells of the sweep run on the
	// parallel runner, which produces results identical to the serial
	// path for any worker count.
	return experiments.Opts{Seed: 7, Warmup: 2, Measure: 8, Batches: 4, Jobs: 0}
}

// runFigure executes one catalogue sweep at a single write probability and
// reports throughput metrics.
func runFigure(b *testing.B, id string) {
	b.Helper()
	s := experiments.Find(id)
	if s == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	s.WriteProbs = []float64{benchWriteProb}
	for i := 0; i < b.N; i++ {
		res, errs := s.RunParallel(benchOpts(), nil)
		if len(errs) > 0 {
			b.Fatalf("cell failures: %v", errs[0])
		}
		for _, p := range res.Protocols {
			v := res.Rows[0].Res[p].Throughput
			if s.Normalize {
				base := res.Rows[0].Res[core.PSAA].Throughput
				if base > 0 {
					v /= base
				}
			}
			b.ReportMetric(v, "tps-"+p.String())
		}
	}
}

func BenchmarkFig03HotColdLowLocality(b *testing.B)  { runFigure(b, "fig3") }
func BenchmarkFig04HotColdHighLocality(b *testing.B) { runFigure(b, "fig4") }

func BenchmarkFig05PageWriteProb(b *testing.B) {
	// Figure 5 is analytic; benchmark the computation over the full grid.
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for wp := 0.0; wp <= 0.5; wp += 0.001 {
			for _, l := range experiments.Fig5Localities {
				sum += experiments.PageWriteProb(wp, l)
			}
		}
		if sum < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkFig06UniformLowLocality(b *testing.B)  { runFigure(b, "fig6") }
func BenchmarkFig07UniformHighLocality(b *testing.B) { runFigure(b, "fig7") }
func BenchmarkFig08HiconLowLocality(b *testing.B)    { runFigure(b, "fig8") }
func BenchmarkFig09HiconHighLocality(b *testing.B)   { runFigure(b, "fig9") }
func BenchmarkFig10Private(b *testing.B)             { runFigure(b, "fig10") }
func BenchmarkFig11InterleavedPrivate(b *testing.B)  { runFigure(b, "fig11") }
func BenchmarkFig12ScaledHotCold(b *testing.B)       { runFigure(b, "fig12") }
func BenchmarkFig13ScaledUniform(b *testing.B)       { runFigure(b, "fig13") }
func BenchmarkFig14ScaledHicon(b *testing.B)         { runFigure(b, "fig14") }

func BenchmarkExtraLocalityOne(b *testing.B) { runFigure(b, "x-locality1") }
func BenchmarkExtraSlowNetwork(b *testing.B) { runFigure(b, "x-slownet") }
func BenchmarkExtraClustered(b *testing.B)   { runFigure(b, "x-clustered") }

// BenchmarkAblationWriteToken compares merging concurrent page updates
// (PS-OO) against the Section 6.1 write-token scheme (PS-WT) under extreme
// false sharing.
func BenchmarkAblationWriteToken(b *testing.B)        { runFigure(b, "x-wtoken") }
func BenchmarkAblationWriteTokenHotCold(b *testing.B) { runFigure(b, "x-wtoken-hotcold") }

func BenchmarkExtraClientScaling(b *testing.B) {
	sweeps := experiments.ClientScalingSweep(0.10, []int{1, 5, 10})
	for i := 0; i < b.N; i++ {
		for _, s := range sweeps {
			s.Protocols = []core.Protocol{core.PSAA}
			res, errs := s.RunParallel(benchOpts(), nil)
			if len(errs) > 0 {
				b.Fatalf("cell failures: %v", errs[0])
			}
			b.ReportMetric(res.Rows[0].Res[core.PSAA].Throughput, "tps-"+s.ID)
		}
	}
}

// BenchmarkTable1Defaults checks/benches the Table 1 configuration
// constructor (paper parameter encoding).
func BenchmarkTable1Defaults(b *testing.B) {
	w := workload.HotColdSpec(workload.LowLocality, 0.1)
	for i := 0; i < b.N; i++ {
		cfg := model.DefaultConfig(core.PSAA, w)
		if cfg.ServerMIPS != 30 || cfg.PageSize != 4096 || cfg.NumDisks != 2 {
			b.Fatal("Table 1 defaults corrupted")
		}
	}
}

// BenchmarkTable2Workloads benches transaction-string generation for every
// Table 2 workload preset.
func BenchmarkTable2Workloads(b *testing.B) {
	specs := []workload.Spec{
		workload.HotColdSpec(workload.LowLocality, 0.2),
		workload.UniformSpec(workload.HighLocality, 0.2),
		workload.HiConSpec(workload.LowLocality, 0.2),
		workload.PrivateSpec(workload.HighLocality, 0.2),
		workload.InterleavedPrivateSpec(0.2),
	}
	for _, s := range specs {
		s := s
		b.Run(s.Kind.String(), func(b *testing.B) {
			gen := workload.NewGenerator(s, s.Layout(), 1, newRand(1))
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(gen.NextTxn())
			}
			b.ReportMetric(float64(n)/float64(b.N), "objs/txn")
		})
	}
}

// ---- Component micro-benchmarks ----

func BenchmarkLockTableGrantRelease(b *testing.B) {
	lt := core.NewLockTab()
	for i := 0; i < b.N; i++ {
		t := core.TxnID(i + 1)
		for s := uint16(0); s < 8; s++ {
			lt.GrantObjX(t, 1, core.ObjID{Page: core.PageID(i % 64), Slot: s})
		}
		lt.ReleaseAll(t)
	}
}

func BenchmarkClientCacheInstallEvict(b *testing.B) {
	c := core.NewClientCache(false, 128)
	for i := 0; i < b.N; i++ {
		c.InstallPage(core.PageID(i%512), nil)
		if i%64 == 0 {
			c.TakeDropped()
		}
	}
}

// BenchmarkServerEngineReadPath measures the pure protocol engine's
// request handling (no simulation costs attached).
func BenchmarkServerEngineReadPath(b *testing.B) {
	layout := core.NewLayout(1024, 20)
	se := core.NewServerEngine(core.PSAA, layout)
	for i := 0; i < b.N; i++ {
		m := core.Msg{Kind: core.MReadReq, From: 1, Txn: core.TxnID(i + 1),
			Obj: core.ObjID{Page: core.PageID(i % 1024)}, Req: int64(i)}
		se.Handle(&m)
	}
}

// BenchmarkLiveCommit measures end-to-end live-system transactions over
// the in-process transport.
func BenchmarkLiveCommit(b *testing.B) {
	dir, err := os.MkdirTemp("", "oodb-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cluster, err := NewCluster(dir, ClusterOptions{Clients: 1, ServerOptions: ServerOptions{
		Proto: PSAA, NumPages: 256, ObjsPerPage: 8, PageSize: 512,
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cl := cluster.Client(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(Obj(PageID(i%256), uint16(i%8)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
