// Command oodbbench drives a live server (local in-process by default, or
// a remote TCP server with -addr) with a configurable multi-client
// workload and reports end-to-end transaction throughput — the live-system
// analogue of the simulation study.
//
// Examples:
//
//	oodbbench -proto PS-AA -clients 8 -txns 500 -hot            # in-process
//	oodbbench -proto PS-AA -clients 8 -txns 500 -hot -heat      # + heat summary
//	oodbbench -addr 127.0.0.1:7090 -clients 8 -txns 500         # remote
//	oodbbench -transport reactor -clients 32 -txns 200          # loopback TCP, epoll reactor
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/live"
)

func main() {
	addr := flag.String("addr", "", "TCP server address (empty: run in-process)")
	proto := flag.String("proto", "PS-AA", "protocol for the in-process server")
	clients := flag.Int("clients", 4, "concurrent clients")
	txns := flag.Int("txns", 200, "transactions per client")
	reads := flag.Int("reads", 8, "object reads per transaction")
	writes := flag.Int("writes", 2, "object updates per transaction")
	pages := flag.Int("pages", 256, "database pages (in-process)")
	hot := flag.Bool("hot", false, "give each client a private hot region (HOTCOLD-like)")
	shards := flag.Int("shards", 0,
		"engine shards for the in-process server (0 = min(8, GOMAXPROCS), honoring OODB_SHARDS)")
	transport := flag.String("transport", "",
		"serve the in-process benchmark over loopback TCP with this connection "+
			"transport (goroutine | reactor) instead of in-memory pipes; "+
			"ignored with -addr (the remote server chose its own)")
	seed := flag.Int64("seed", 1, "workload seed")
	rto := flag.Duration("request-timeout", 0,
		"per-request deadline for remote clients (0 = wait forever)")
	reconnect := flag.Bool("reconnect", false,
		"redial remote servers with backoff after transport failures")
	heat := flag.Bool("heat", false,
		"collect heat telemetry on the in-process server and print the final "+
			"top-K hot/contended page summary")
	metricsEvery := flag.Duration("metrics-every", 0,
		"dump the metrics snapshot at this interval while running (0 = off)")
	recluster := flag.Bool("recluster", false, "enable online reclustering on the in-process server")
	flag.Parse()

	var connect func() (*repro.Client, error)
	var numPages, objsPerPage int
	var statsFn func() core.ServerStats
	var heatFn func() *repro.Heat

	// One registry aggregates the (in-process) server and every client, so
	// the final dump shows both sides of each protocol action.
	reg := repro.NewMetricsRegistry()

	if *addr == "" {
		p, ok := core.ParseProtocol(*proto)
		if !ok {
			fatal(fmt.Errorf("unknown protocol %q", *proto))
		}
		dir, err := os.MkdirTemp("", "oodbbench")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		copts := repro.ClusterOptions{ServerOptions: repro.ServerOptions{
			Proto: p, NumPages: *pages, Shards: *shards, Metrics: reg,
			Heat: *heat, Recluster: *recluster, Transport: *transport,
		}}
		live.ApplyEnv(&copts.ServerOptions)
		cluster, err := repro.NewCluster(dir, copts)
		if err != nil {
			fatal(err)
		}
		defer cluster.Close()
		connect = cluster.AttachClient
		how := "in-memory pipes"
		if *transport != "" {
			// Serve a loopback listener with the requested transport and
			// dial the benchmark clients through it, so the wire layer
			// under test (reactor or goroutine-per-conn) is on the path.
			go cluster.Server().ListenAndServe("127.0.0.1:0")
			deadline := time.Now().Add(5 * time.Second)
			for cluster.Server().Addr() == "" {
				if time.Now().After(deadline) {
					fatal(fmt.Errorf("in-process server never started listening"))
				}
				time.Sleep(time.Millisecond)
			}
			tcpAddr := cluster.Server().Addr()
			copts2 := repro.ClientOptions{RequestTimeout: *rto, Metrics: reg}
			connect = func() (*repro.Client, error) { return repro.DialOpts(tcpAddr, copts2) }
			how = fmt.Sprintf("loopback TCP, %s transport", cluster.Server().Transport())
		}
		statsFn = cluster.Server().Stats
		heatFn = cluster.Server().Heat
		numPages, objsPerPage, _ = cluster.Server().Geometry()
		fmt.Printf("oodbbench: in-process server with %d engine shards over %s (GOMAXPROCS=%d, NumCPU=%d)\n",
			cluster.Server().NumShards(), how, runtime.GOMAXPROCS(0), runtime.NumCPU())
	} else {
		opts := repro.ClientOptions{RequestTimeout: *rto, Metrics: reg}
		if *reconnect {
			a := *addr
			opts.Redial = func() (repro.Conn, error) { return repro.DialConn(a) }
		}
		connect = func() (*repro.Client, error) { return repro.DialOpts(*addr, opts) }
		probe, err := connect()
		if err != nil {
			fatal(err)
		}
		numPages, objsPerPage = probe.Geometry()
		probe.Close()
	}

	fmt.Printf("oodbbench: %d clients x %d txns (%dr+%dw objects), db=%d pages\n",
		*clients, *txns, *reads, *writes, numPages)

	if *metricsEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				fmt.Println("--- metrics snapshot ---")
				reg.WriteHuman(os.Stdout)
			}
		}()
	}

	var committed, aborted int64
	commitLats := make([][]int64, *clients) // per-client: no shared append
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		cl, err := connect()
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int, cl *repro.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(i)*7919))
			pick := func() repro.ObjID {
				var p int
				if *hot && rng.Float64() < 0.8 {
					region := numPages / (*clients)
					p = i*region + rng.Intn(region)
				} else {
					p = rng.Intn(numPages)
				}
				return repro.Obj(repro.PageID(p), uint16(rng.Intn(objsPerPage)))
			}
			for n := 0; n < *txns; {
				tx, err := cl.Begin()
				if err != nil {
					fatal(err)
				}
				err = runTxn(tx, rng, pick, *reads, *writes)
				var commitStart time.Time
				if err == nil {
					commitStart = time.Now()
					err = tx.Commit()
				}
				switch {
				case err == nil:
					n++
					atomic.AddInt64(&committed, 1)
					commitLats[i] = append(commitLats[i], time.Since(commitStart).Nanoseconds())
				case errors.Is(err, repro.ErrAborted):
					atomic.AddInt64(&aborted, 1)
				default:
					fatal(err)
				}
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	txnPerSec := float64(committed) / elapsed.Seconds()
	p99 := percentileNs(commitLats, 99)
	fmt.Printf("committed %d txns in %v — %.0f txn/s, p99 commit %v (%d deadlock retries)\n",
		committed, elapsed.Round(time.Millisecond), txnPerSec,
		time.Duration(p99).Round(time.Microsecond), aborted)
	if statsFn != nil {
		st := statsFn()
		fmt.Printf("server: reads=%d writes=%d callbacks=%d busy=%d deesc=%d pageX=%d objX=%d deadlocks=%d\n",
			st.ReadReqs, st.WriteReqs, st.Callbacks, st.BusyReplies,
			st.Deescalations, st.PageGrants, st.ObjGrants, st.Deadlocks)
	}
	if *heat && heatFn != nil {
		fmt.Println("--- heat summary (top-K hot/contended pages) ---")
		heatFn().WriteHuman(os.Stdout)
	} else if *heat {
		fmt.Fprintln(os.Stderr, "oodbbench: -heat requires the in-process server (no -addr)")
	}
	fmt.Println("--- final metrics ---")
	reg.WriteHuman(os.Stdout)
}

func runTxn(tx *repro.Txn, rng *rand.Rand, pick func() repro.ObjID, reads, writes int) error {
	for r := 0; r < reads; r++ {
		if _, err := tx.Read(pick()); err != nil {
			return err
		}
	}
	for w := 0; w < writes; w++ {
		if err := tx.Update(pick(), func(old []byte) []byte {
			return []byte{old[0] + 1}
		}); err != nil {
			return err
		}
	}
	return nil
}

// percentileNs merges the per-client latency slices and returns the p-th
// percentile in nanoseconds (0 if nothing was recorded).
func percentileNs(lats [][]int64, p int) int64 {
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[(len(all)-1)*p/100]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oodbbench:", err)
	os.Exit(1)
}
