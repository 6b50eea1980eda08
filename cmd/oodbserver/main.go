// Command oodbserver runs a live page-server OODBMS over TCP.
//
// Usage:
//
//	oodbserver -dir /var/lib/oodb -addr :7090 -proto PS-AA -pages 1250
//
// Flags:
//
//	-dir               database directory (created on first start; recovered
//	                   from the write-ahead log on every start)
//	-addr              TCP listen address
//	-proto             cache-consistency protocol: PS | OS | PS-OO | PS-OA | PS-AA
//	-pages, -objs,     database geometry, honored at creation only; an
//	-pagesize          existing database keeps its on-disk geometry
//	-nosync            do not fsync the WAL per commit (faster, unsafe:
//	                   acknowledged commits may be lost on a crash)
//	-transport         connection transport: goroutine (default; one
//	                   reader+pump goroutine pair per session) or
//	                   reactor (epoll event loops, O(loops) goroutines
//	                   for any session count; Linux only, falls back to
//	                   goroutine elsewhere)
//	-callback-timeout  depose clients that leave a cache-consistency
//	                   callback unanswered for this long (0 disables);
//	                   bounds how long one silent client can stall writers
//	-admin             serve the observability endpoint on this address
//	                   (/metrics, /statusz, /trace, /heatz, /spanz,
//	                   /debug/pprof/*)
//	-trace             start with protocol event tracing enabled (the
//	                   admin endpoint can toggle it at runtime)
//	-heat              start with heat/contention collection enabled
//	                   (/heatz can toggle at runtime)
//	-recluster         enable online reclustering:
//	                   reserve spare pages at creation and migrate objects
//	                   off false-sharing suspect pages in the background
//	                   (implies -heat; see /reclusterz)
//	-blackbox-dir      write crash blackboxes (trace ring + heat snapshot
//	                   + spans + metrics as JSONL) into this directory on
//	                   panic or fail-stop (empty = disabled)
//	-stats-every       print a one-line stats summary at this interval
//	                   (0 = off)
//
// Clients connect with repro.Dial (or cmd/oodbbench).
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting,
// detaches clients, flushes the store, and truncates the WAL, then prints
// protocol statistics. A second signal forces immediate exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "oodb-data", "database directory")
	addr := flag.String("addr", "127.0.0.1:7090", "TCP listen address")
	proto := flag.String("proto", "PS-AA", "PS | OS | PS-OO | PS-OA | PS-AA")
	pages := flag.Int("pages", 1250, "database size in pages (creation only)")
	objsPerPage := flag.Int("objs", 20, "objects per page (creation only)")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes (creation only)")
	noSync := flag.Bool("nosync", false, "do not fsync the WAL per commit (unsafe)")
	transport := flag.String("transport", "",
		"connection transport: goroutine | reactor "+
			"(empty = goroutine)")
	cbTimeout := flag.Duration("callback-timeout", 0,
		"depose clients with callbacks unanswered this long (0 = wait forever)")
	admin := flag.String("admin", "",
		"observability HTTP address, e.g. :6060 (empty = disabled)")
	trace := flag.Bool("trace", false, "start with protocol event tracing enabled")
	recluster := flag.Bool("recluster", false,
		"enable online reclustering: reserve spare pages at "+
			"creation and migrate objects off false-sharing suspect pages in the "+
			"background (implies -heat; see /reclusterz)")
	heat := flag.Bool("heat", false,
		"start with heat/contention collection enabled")
	blackboxDir := flag.String("blackbox-dir", "",
		"write crash blackboxes into this directory on panic or fail-stop (empty = disabled)")
	statsEvery := flag.Duration("stats-every", 0,
		"print a one-line stats summary at this interval (0 = off)")
	flag.Parse()

	p, ok := core.ParseProtocol(*proto)
	if !ok {
		fatal(fmt.Errorf("unknown protocol %q", *proto))
	}
	opts := live.ServerOptions{
		Proto: p, PageSize: *pageSize, ObjsPerPage: *objsPerPage, NumPages: *pages,
		SyncWAL: !*noSync, CallbackTimeout: *cbTimeout,
		Transport: *transport, Heat: *heat, Recluster: *recluster,
		BlackboxDir: *blackboxDir,
	}
	srv, err := live.OpenServer(*dir, opts)
	if err != nil {
		fatal(err)
	}
	np, opp, osz := srv.Geometry()
	fmt.Printf("oodbserver: %s on %s — %d pages x %d objects (%d B each), %s transport (GOMAXPROCS=%d, NumCPU=%d)\n",
		p, *addr, np, opp, osz, srv.Transport(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("oodbserver: telemetry — trace ring %d events, heat=%v", obs.DefaultTraceBuf, srv.Heat().Enabled())
	if *blackboxDir != "" {
		fmt.Printf(", blackbox %s (max %d dumps)", *blackboxDir, obs.DefaultBlackboxMax)
	}
	fmt.Println()
	rs := srv.RecoveryStats()
	fmt.Printf("oodbserver: recovery replayed %d records across %d pages in %.1fms\n",
		rs.Records, rs.PagesReplayed, float64(rs.DurationNs)/1e6)

	srv.Tracer().SetEnabled(*trace)
	if *admin != "" {
		as, err := live.ServeAdmin(srv, *admin)
		if err != nil {
			fatal(err)
		}
		defer as.Close()
		fmt.Printf("oodbserver: admin endpoint on http://%s (/metrics /statusz /trace /heatz /spanz /debug/pprof)\n", as.Addr())
	}
	if *statsEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				st := srv.Stats()
				fmt.Printf("stats: sessions=%d reads=%d writes=%d commits=%d aborts=%d blocks=%d callbacks=%d busy=%d deadlocks=%d\n",
					srv.Sessions(), st.ReadReqs, st.WriteReqs, st.Commits, st.Aborts,
					st.Blocks, st.Callbacks, st.BusyReplies, st.Deadlocks)
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\noodbserver: shutting down (signal again to force)")
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "oodbserver: forced exit")
			os.Exit(1)
		}()
		// Close stops the listener; ListenAndServe below returns nil and
		// main finishes the orderly path (stats, exit 0).
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "oodbserver: shutdown:", err)
		}
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		fatal(err)
	}
	// Graceful path: listener closed by the signal handler, all sessions
	// drained, store flushed, WAL truncated. Report and leave.
	st := srv.Stats()
	fmt.Printf("stats: reads=%d writes=%d commits=%d aborts=%d callbacks=%d deadlocks=%d\n",
		st.ReadReqs, st.WriteReqs, st.Commits, st.Aborts, st.Callbacks, st.Deadlocks)
	// Close is idempotent; this is a no-op when the handler already ran it,
	// but covers future return paths out of ListenAndServe.
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oodbserver:", err)
	os.Exit(1)
}
