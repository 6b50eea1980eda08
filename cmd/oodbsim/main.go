// Command oodbsim runs a single OODBMS simulation with fully
// parameterized workload and system settings and prints the result, with
// an optional comparison across all five protocols.
//
// Examples:
//
//	oodbsim -workload HOTCOLD -proto PS-AA -writeprob 0.1
//	oodbsim -workload UNIFORM -locality high -writeprob 0.2 -compare
//	oodbsim -workload PRIVATE -writeprob 0.3 -clients 20 -measure 300
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("workload", "HOTCOLD", "HOTCOLD | UNIFORM | HICON | PRIVATE | INTERLEAVED-PRIVATE")
	proto := flag.String("proto", "PS-AA", "PS | OS | PS-OO | PS-OA | PS-AA")
	locality := flag.String("locality", "low", "low (30 pages, 1-7 obj) | high (10 pages, 8-16 obj)")
	writeProb := flag.Float64("writeprob", 0.1, "per-object write probability")
	clients := flag.Int("clients", workload.DefaultNumClients, "number of client workstations")
	seed := flag.Int64("seed", 1, "simulation seed")
	warmup := flag.Float64("warmup", 30, "warmup virtual seconds")
	measure := flag.Float64("measure", 120, "measured virtual seconds")
	netMbps := flag.Float64("net", 80, "network bandwidth in Mbps")
	scale := flag.Int("scale", 1, "database scale factor (txn size scales by sqrt-ish rule: x3 at x9)")
	compare := flag.Bool("compare", false, "run all five protocols and print a comparison")
	jobs := flag.Int("jobs", 0, "concurrent simulations in -compare mode (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print detailed metrics")
	flag.Parse()

	spec, err := workload.ParseSpec(*wl, *locality, *writeProb, *clients)
	if err != nil {
		fatal(err)
	}
	if *scale == 9 {
		spec = workload.Scale(spec, 9, 3)
	} else if *scale != 1 {
		spec = workload.Scale(spec, *scale, 1)
	}

	protos := core.Protocols
	if !*compare {
		p, ok := core.ParseProtocol(*proto)
		if !ok {
			fatal(fmt.Errorf("unknown protocol %q", *proto))
		}
		protos = []core.Protocol{p}
	}

	fmt.Printf("workload=%s locality=%s writeProb=%.3f clients=%d db=%d pages seed=%d\n\n",
		spec.Kind, *locality, *writeProb, spec.NumClients, spec.DBPages, *seed)
	fmt.Printf("%-6s %10s %8s %9s %8s %8s %9s %8s %8s %8s\n",
		"proto", "tput(t/s)", "±90%CI", "resp(ms)", "commits", "aborts", "msgs/c", "srvCPU", "disk", "net")

	// One sweep row, one cell per protocol, on the experiments runner.
	sweep := &experiments.Sweep{
		ID:         "oodbsim",
		Spec:       func(float64) workload.Spec { return spec },
		WriteProbs: []float64{*writeProb},
		Protocols:  protos,
		Configure:  func(cfg *model.Config) { cfg.NetworkMbps = *netMbps },
	}
	out, errs := sweep.RunParallel(experiments.Opts{
		Seed: *seed, Warmup: *warmup, Measure: *measure,
		Batches: model.DefaultConfig(protos[0], spec).Batches, Jobs: *jobs,
	}, nil)
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "oodbsim: %v\n%s", e, e.Stack)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}

	for _, p := range protos {
		res := out.Rows[0].Res[p]
		fmt.Printf("%-6s %10.2f %8.2f %9.1f %8d %8d %9.1f %8.2f %8.2f %8.2f\n",
			p, res.Throughput, res.ThroughputCI, res.RespTime.Mean()*1000,
			res.Commits, res.Aborts, res.MsgsPerCommit,
			res.ServerCPUUtil, res.DiskUtil, res.NetUtil)
		if *verbose {
			fmt.Printf("       deadlocks=%d callbacks=%d busy=%d deesc=%d pageGrants=%d objGrants=%d blocks=%d\n",
				res.Deadlocks, res.Callbacks, res.BusyReplies, res.Deescalations,
				res.PageGrants, res.ObjGrants, res.Blocks)
			fmt.Printf("       bufHits=%d bufMisses=%d writebacks=%d clientEvictions=%d bytes=%d\n",
				res.ServerBufHits, res.ServerBufMisses, res.ServerWritebacks,
				res.ClientEvictions, res.MsgBytes)
			for _, k := range []core.MsgKind{core.MReadReq, core.MWriteReq, core.MCommitReq,
				core.MCallback, core.MCallbackAck, core.MPageData, core.MObjData, core.MGrant,
				core.MDeescReq, core.MDeescReply} {
				if n := res.MsgByKind[k]; n > 0 {
					fmt.Printf("       msg %-12s %d\n", k, n)
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oodbsim:", err)
	os.Exit(1)
}
