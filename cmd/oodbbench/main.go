// Command oodbbench drives a remote live server (started with oodbserver)
// with one of the paper's workloads (internal/workload's presets, named as
// in oodbsim) from several TCP clients and reports end-to-end transaction
// throughput — the live-system analogue of the simulation study. The
// server chooses protocol, transport, heat telemetry and reclustering
// (oodbserver -proto, -transport, -heat, -recluster).
//
// Examples:
//
//	oodbbench -addr 127.0.0.1:7090 -clients 8 -txns 500                 # HOTCOLD
//	oodbbench -addr 127.0.0.1:7090 -workload UNIFORM -locality high -writeprob 0.2
//	oodbbench -addr 127.0.0.1:7090 -reconnect -request-timeout 2s       # survives restarts
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oodbbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("oodbbench", flag.ContinueOnError)
	addr := fs.String("addr", "", "TCP address of the server to drive (required)")
	clients := fs.Int("clients", 4, "concurrent clients")
	txns := fs.Int("txns", 200, "transactions per client")
	wl := fs.String("workload", "HOTCOLD", "HOTCOLD | UNIFORM | HICON | PRIVATE | INTERLEAVED-PRIVATE")
	locality := fs.String("locality", "low", "low (30 pages, 1-7 obj) | high (10 pages, 8-16 obj)")
	writeProb := fs.Float64("writeprob", 0.1, "per-object write probability")
	seed := fs.Int64("seed", 1, "workload seed")
	rto := fs.Duration("request-timeout", 0, "per-request deadline (0 = wait forever)")
	reconnect := fs.Bool("reconnect", false,
		"redial with backoff after transport failures and retry the transaction")
	metricsEvery := fs.Duration("metrics-every", 0,
		"dump the metrics snapshot at this interval while running (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *addr == "" {
		return errors.New("-addr is required: start a server with oodbserver and pass its address")
	}

	spec, err := workload.ParseSpec(*wl, *locality, *writeProb, *clients)
	if err != nil {
		return err
	}

	// One registry aggregates every client, so the final dump shows the
	// client side of each protocol action.
	reg := repro.NewMetricsRegistry()
	opts := repro.ClientOptions{RequestTimeout: *rto, Metrics: reg}
	if *reconnect {
		a := *addr
		opts.Redial = func() (repro.Conn, error) { return repro.DialConn(a) }
	}
	connect := func() (*repro.Client, error) { return repro.DialOpts(*addr, opts) }
	probe, err := connect()
	if err != nil {
		return err
	}
	numPages, objsPerPage := probe.Geometry()
	probe.Close()
	if numPages < spec.DBPages || objsPerPage < spec.ObjsPerPage {
		return fmt.Errorf("server has %d pages x %d objects; %s needs %d x %d",
			numPages, objsPerPage, spec.Kind, spec.DBPages, spec.ObjsPerPage)
	}

	fmt.Fprintf(stdout, "oodbbench: %d clients x %d txns of %s (%s locality, writeprob %.2f, ~%.0f objects), db=%d pages\n",
		*clients, *txns, spec.Kind, *locality, *writeProb, spec.AvgObjectsPerTxn(), spec.DBPages)

	if *metricsEvery > 0 {
		stop, stopped := make(chan struct{}), make(chan struct{})
		defer func() { close(stop); <-stopped }()
		go func() {
			defer close(stopped)
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				fmt.Fprintln(stdout, "--- metrics snapshot ---")
				reg.WriteHuman(stdout)
			}
		}()
	}

	layout := spec.Layout()
	var committed, aborted, retried, unknown atomic.Int64
	var failed atomic.Bool // a worker failed: the others stop at their next transaction
	errs := make([]error, *clients)
	commitLats := make([][]int64, *clients) // per-client: no shared append
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		cl, err := connect()
		if err != nil {
			failed.Store(true)
			wg.Wait()
			return err
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int, cl *repro.Client) {
			defer wg.Done()
			gen := workload.NewGenerator(spec, layout, i+1, rand.New(rand.NewSource(*seed+int64(i)*7919)))
			for n := 0; n < *txns && !failed.Load(); n++ {
				refs := gen.NextTxn()
				for {
					commitStart, err := runTxn(cl, refs)
					if err == nil {
						committed.Add(1)
						commitLats[i] = append(commitLats[i], time.Since(commitStart).Nanoseconds())
						break
					}
					switch {
					case errors.Is(err, repro.ErrAborted):
						aborted.Add(1) // a deadlock victim retries the same refs
					case *reconnect && (errors.Is(err, repro.ErrDisconnected) || errors.Is(err, repro.ErrTimeout)):
						// The client redials; a commit in flight may
						// have landed before the connection went.
						retried.Add(1)
						if !commitStart.IsZero() {
							unknown.Add(1)
						}
					default:
						errs[i] = fmt.Errorf("client %d: %w", i+1, err)
						failed.Store(true)
						return
					}
				}
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return err
	}

	txnPerSec := float64(committed.Load()) / elapsed.Seconds()
	p99 := percentileNs(commitLats, 99)
	fmt.Fprintf(stdout, "committed %d txns in %v — %.0f txn/s, p99 commit %v (%d deadlock retries",
		committed.Load(), elapsed.Round(time.Millisecond), txnPerSec,
		time.Duration(p99).Round(time.Microsecond), aborted.Load())
	if *reconnect {
		fmt.Fprintf(stdout, ", %d reconnect retries, %d commits of unknown outcome", retried.Load(), unknown.Load())
	}
	fmt.Fprintln(stdout, ")")
	fmt.Fprintln(stdout, "--- final metrics ---")
	reg.WriteHuman(stdout)
	return nil
}

// runTxn runs refs as one transaction — Update for a write, Read for a
// read — and returns when its commit started (zero if it never did).
func runTxn(cl *repro.Client, refs []workload.Ref) (commitStart time.Time, err error) {
	tx, err := cl.Begin()
	if err != nil {
		return commitStart, err
	}
	for _, r := range refs {
		if r.Write {
			err = tx.Update(r.Obj, func(old []byte) []byte { return []byte{old[0] + 1} })
		} else {
			_, err = tx.Read(r.Obj)
		}
		if err != nil {
			return commitStart, err
		}
	}
	commitStart = time.Now()
	return commitStart, tx.Commit()
}

// percentileNs merges the per-client latency slices and returns the p-th
// percentile in nanoseconds (0 if nothing was recorded).
func percentileNs(lats [][]int64, p int) int64 {
	all := slices.Concat(lats...)
	if len(all) == 0 {
		return 0
	}
	slices.Sort(all)
	return all[(len(all)-1)*p/100]
}
