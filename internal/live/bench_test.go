package live

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// BenchmarkHeatDisabled measures the cost a disabled heat collector adds
// to every traced access: it must stay a nil-check plus one atomic load
// (same discipline as the disabled tracer), since the live server calls
// RecordAccess on every engine lock request.
func BenchmarkHeatDisabled(b *testing.B) {
	h := obs.NewHeat(obs.HeatOptions{})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int32(0)
		for pb.Next() {
			h.RecordAccess(1, i&1023, i%20, i&3 == 0)
			i++
		}
	})
}

// BenchmarkHeatEnabled measures the enabled recording path (shard hash,
// TryLock, sketch update) under parallel load — the cost an operator buys
// by turning /heatz on.
func BenchmarkHeatEnabled(b *testing.B) {
	h := obs.NewHeat(obs.HeatOptions{})
	h.SetEnabled(true)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int32(0)
		for pb.Next() {
			h.RecordAccess(1, i&1023, i%20, i&3 == 0)
			i++
		}
	})
	if h.Dropped() == int64(b.N) {
		b.Fatal("every sample dropped; benchmark measured nothing")
	}
}

// startTCPServer opens a server on a loopback listener and returns it with
// its dial address.
func startTCPServer(b *testing.B, opts ServerOptions) (*Server, string) {
	b.Helper()
	dir := b.TempDir()
	srv, err := openServer(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			b.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, srv.Addr()
}

// BenchmarkLiveCommit measures end-to-end commit throughput over real TCP
// with N concurrent clients and a durable (fsynced) WAL — the live-system
// hot path the wire codec and group commit optimize. Each client updates
// objects in a private page region, so the measurement is the data plane
// (codec, WAL, fsync scheduling), not lock contention. Reported metrics:
// txn/s (aggregate committed throughput) and p99-commit-ns (per-commit
// latency tail).
func BenchmarkLiveCommit(b *testing.B) {
	for _, nc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", nc), func(b *testing.B) {
			benchLiveCommit(b, nc)
		})
	}
}

func benchLiveCommit(b *testing.B, nClients int) {
	const pagesPerClient = 16
	srv, addr := startTCPServer(b, ServerOptions{
		Proto: core.PSAA, PageSize: 4096, ObjsPerPage: 20,
		NumPages: nClients * pagesPerClient, SyncWAL: true,
	})
	defer srv.Close()

	clients := make([]*Client, nClients)
	for i := range clients {
		conn, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := Connect(conn, ClientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = cl
		defer cl.Close()
	}

	var next atomic.Int64
	lats := make([][]int64, nClients)
	val := make([]byte, 64)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(b.N) {
					return
				}
				tx, err := cl.Begin()
				if err != nil {
					b.Error(err)
					return
				}
				obj := o(core.PageID(i*pagesPerClient+int(n)%pagesPerClient), uint16(n%20))
				if err := tx.Write(obj, val); err != nil {
					b.Error(err)
					return
				}
				start := time.Now()
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
				lats[i] = append(lats[i], time.Since(start).Nanoseconds())
			}
		}(i, cl)
	}
	wg.Wait()
	b.StopTimer()

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		b.ReportMetric(float64(all[(len(all)-1)*99/100]), "p99-commit-ns")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txn/s")
}

// BenchmarkLiveMixed is the read-heavy mixed workload: 32 clients over
// TCP share a 64-page read region while each also owns a private write
// region. Client caches are deliberately tiny (8 pages) so most reads
// miss and fetch from the server — the workload that hammers route()'s
// payload path. ~90% of transactions are 4-object read-only txns against
// the shared region; ~10% additionally commit one private-page update
// through the durable WAL.
func BenchmarkLiveMixed(b *testing.B) {
	const (
		nClients    = 32
		sharedPages = 64
		privPages   = 4
	)
	srv, addr := startTCPServer(b, ServerOptions{
		Proto: core.PSAA, PageSize: 4096, ObjsPerPage: 20,
		NumPages: sharedPages + nClients*privPages, SyncWAL: true,
	})
	defer srv.Close()

	clients := make([]*Client, nClients)
	for i := range clients {
		conn, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := Connect(conn, ClientOptions{CachePages: 8})
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = cl
		defer cl.Close()
	}

	var next atomic.Int64
	val := make([]byte, 64)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
			for {
				n := next.Add(1) - 1
				if n >= int64(b.N) {
					return
				}
				tx, err := cl.Begin()
				if err != nil {
					b.Error(err)
					return
				}
				for r := 0; r < 4; r++ {
					obj := o(core.PageID(rng.Intn(sharedPages)), uint16(rng.Intn(20)))
					if _, err := tx.Read(obj); err != nil {
						b.Error(err)
						return
					}
				}
				if n%10 == 0 {
					obj := o(core.PageID(sharedPages+i*privPages+int(n)%privPages), uint16(n%20))
					if err := tx.Write(obj, val); err != nil {
						b.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txn/s")
}

// BenchmarkLiveCommitLargeWriteSet commits one transaction with a
// 2000-object write set (100 pages x 20 slots) per iteration. The WAL is
// not fsynced so the measurement isolates commit-request processing —
// this is the benchmark that exposes a quadratic sortedUpdateKeys.
func BenchmarkLiveCommitLargeWriteSet(b *testing.B) {
	const (
		nPages  = 100
		objsPP  = 20
		objSize = 24 // fits the 31-byte slot cap at PageSize 640 / 20 objs
	)
	srv, addr := startTCPServer(b, ServerOptions{
		Proto: core.PSAA, PageSize: 640, ObjsPerPage: objsPP,
		NumPages: nPages, SyncWAL: false,
	})
	defer srv.Close()

	conn, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := Connect(conn, ClientOptions{CachePages: nPages})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	val := make([]byte, objSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < nPages; p++ {
			for s := 0; s < objsPP; s++ {
				if err := tx.Write(o(core.PageID(p), uint16(s)), val); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// tcpPair returns both ends of one established loopback TCP connection,
// so the wire benchmarks exercise the same socket path production uses.
func tcpPair(b testing.TB) (net.Conn, net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		b.Fatal(r.err)
	}
	return c1, r.c
}

// benchWireRoundTrip pumps b.N copies of m through the binary transport
// over a loopback TCP connection, measuring the full encode+frame+decode
// path (allocs/op is the wire-path allocation cost). The sub-benchmark
// name is what CI's alloc guard and BENCH_figures.json key on.
func benchWireRoundTrip(b *testing.B, m *core.Msg) {
	b.Run("codec=binary", func(b *testing.B) {
		c1, c2 := tcpPair(b)
		t1, t2 := NewTCPConn(c1), NewTCPConn(c2)
		defer t1.Close()
		defer t2.Close()
		b.ReportAllocs()
		b.ResetTimer()
		errCh := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if err := t1.Send(m); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
		for i := 0; i < b.N; i++ {
			if _, err := t2.Recv(); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkWirePageData is the server->client data path: a full 4KiB page
// grant with a couple of unavailable slots.
func BenchmarkWirePageData(b *testing.B) {
	benchWireRoundTrip(b, &core.Msg{
		Kind: core.MPageData, To: 3, Txn: 77, Req: 12,
		Page: 9, Grant: core.GrantPage,
		Unavail: []uint16{1, 7},
		Data:    make([]byte, 4096),
	})
}

// BenchmarkWireCommitMsg is the client->server commit path: four object
// afterimages plus the page list and a piggybacked drop notice.
func BenchmarkWireCommitMsg(b *testing.B) {
	updates := make(map[core.ObjID][]byte)
	for i := 0; i < 4; i++ {
		updates[core.ObjID{Page: core.PageID(i), Slot: uint16(i)}] = make([]byte, 100)
	}
	benchWireRoundTrip(b, &core.Msg{
		Kind: core.MCommitReq, From: 2, Txn: 1234567, Req: 99,
		Pages:        []core.PageID{0, 1, 2, 3},
		Updates:      updates,
		DroppedPages: []core.PageID{11},
	})
}

// BenchmarkWireControl is the smallest message class (acks, grants):
// framing overhead floor.
func BenchmarkWireControl(b *testing.B) {
	benchWireRoundTrip(b, &core.Msg{
		Kind: core.MCallbackAck, From: 4, Txn: 42, Req: 7, Purged: true,
		Obj: core.ObjID{Page: 3, Slot: 2}, Epoch: 5,
	})
}

// BenchmarkReadMissTCP is the fetch path end to end, under each TCP
// session driver: one client over loopback TCP whose 16-page cache is cycled
// over a 64-page database, so every read misses, fetches a page and evicts
// one. One op is one transaction of 16 such reads (a transaction pins what
// it touches, so 16 is the most a 16-page cache turns over); allocs/op ÷ 16
// is what a fetch allocates on both ends. CI's alloc-regression step guards
// it.
func BenchmarkReadMissTCP(b *testing.B) {
	for _, transport := range []string{TransportGoroutine, TransportReactor} {
		b.Run("transport="+transport, func(b *testing.B) { benchReadMissTCP(b, transport) })
	}
}

func benchReadMissTCP(b *testing.B, transport string) {
	srv, addr := startTCPServer(b, readMissServer(transport))
	defer srv.Close()
	if srv.Transport() != transport {
		b.Skipf("%s transport unavailable on this platform", transport)
	}
	conn, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	benchReadMiss(b, conn)
}

// BenchmarkReadMissPipe is BenchmarkReadMissTCP over an in-process pipe,
// the connection repro.Cluster and the benchmark's pipe workloads use:
// ns/op ÷ 16 is a fetch round trip with nothing but two goroutine wake-ups
// between client and engine, allocs/op ÷ 16 what one leaves behind.
func BenchmarkReadMissPipe(b *testing.B) {
	srv, err := openServer(b.TempDir(), readMissServer(""))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		b.Fatal(err)
	}
	benchReadMiss(b, cEnd)
}

const readMissPages, readMissCache = 64, 16

func readMissServer(transport string) ServerOptions {
	return ServerOptions{
		Proto: core.PSAA, PageSize: 4096, ObjsPerPage: 20, NumPages: readMissPages, SyncWAL: false,
		Transport: transport,
	}
}

// benchReadMiss times transactions of readMissCache uncached reads each by
// a client connected over conn.
func benchReadMiss(b *testing.B, conn Conn) {
	const pages, cache = readMissPages, readMissCache
	cl, err := Connect(conn, ClientOptions{CachePages: cache})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	next := 0
	txn := func() {
		tx, err := cl.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < cache; i++ {
			if _, err := tx.Read(o(core.PageID(next%pages), uint16(next%20))); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*pages/cache; i++ {
		txn() // warm up: fill the cache, then reach one eviction per install
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn()
	}
	b.StopTimer() // before the deferred Closes
}

// BenchmarkVStoreWriteParallel measures the variable-object store's
// install path under multi-core load: each goroutine rewrites same-size
// objects on its own page, so every write fits in place and never touches
// another page. This is the case the per-page write latch targets — with
// a store-wide exclusive latch the writers serialize even though their
// pages are disjoint. Recorded before/after in DESIGN.md §16.
func BenchmarkVStoreWriteParallel(b *testing.B) {
	const (
		pageSize = 4096
		objsPP   = 8
		numPages = 256
	)
	s, err := CreateVStore(b.TempDir()+"/v.db", pageSize, objsPP, numPages)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	// Pre-place every object so the steady state is the in-place rewrite.
	for p := 0; p < numPages; p++ {
		for sl := 0; sl < objsPP; sl++ {
			if err := s.WriteVObj(p, sl, val); err != nil {
				b.Fatal(err)
			}
		}
	}
	var pageCtr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		page := int(pageCtr.Add(1)-1) % numPages
		slot := 0
		for pb.Next() {
			if err := s.WriteVObj(page, slot, val); err != nil {
				b.Error(err)
				return
			}
			slot = (slot + 1) % objsPP
		}
	})
}

// BenchmarkVStoreMixedParallel is the contention shape the live server
// produces: most goroutines read (off the server lock, as route() does)
// while a minority installs. Reads on disjoint pages must not stall
// behind in-place installs.
func BenchmarkVStoreMixedParallel(b *testing.B) {
	const (
		pageSize = 4096
		objsPP   = 8
		numPages = 256
	)
	s, err := CreateVStore(b.TempDir()+"/v.db", pageSize, objsPP, numPages)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 100)
	for p := 0; p < numPages; p++ {
		for sl := 0; sl < objsPP; sl++ {
			if err := s.WriteVObj(p, sl, val); err != nil {
				b.Fatal(err)
			}
		}
	}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(ctr.Add(1) - 1)
		page := id % numPages
		writer := id%4 == 0
		slot := 0
		for pb.Next() {
			if writer {
				if err := s.WriteVObj(page, slot, val); err != nil {
					b.Error(err)
					return
				}
			} else {
				if _, err := s.ReadVObj(page, slot); err != nil {
					b.Error(err)
					return
				}
			}
			slot = (slot + 1) % objsPP
		}
	})
}

// BenchmarkRecovery measures instant restart on a crashed database: a
// store whose log still holds every commit (no checkpoint retired any of
// it). Each iteration clones that state, opens a server over it, and runs
// one commit — the moment the database is really back. Reported metrics:
// "txn/s" is logged records applied per second of the apply+write-back
// phase, the part -recovery-jobs parallelizes (the trailing fsync is
// device-bound and serial, so including it would only measure the disk);
// "ttfc-ns" is time-to-first-commit, OpenServer through the first
// post-restart commit ack. CI runs this twice (OODB_RECOVERY_JOBS=1 vs 4)
// and guards the txn/s ratio.
func BenchmarkRecovery(b *testing.B) {
	const (
		numPages = 1024
		objsPP   = 8
		pageSize = 2048
		records  = 8192
		fanout   = 4
	)
	tpl := b.TempDir()
	st, err := CreateStore(tpl+"/data.db", pageSize, objsPP, numPages)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	w, _, err := OpenWAL(tpl + "/wal.log")
	if err != nil {
		b.Fatal(err)
	}
	w.SyncOnCommit = false
	rng := rand.New(rand.NewSource(7))
	objSize := (pageSize - 4) / objsPP
	for i := 0; i < records; i++ {
		objs := make([]core.ObjID, fanout)
		imgs := make([][]byte, fanout)
		for j := range objs {
			objs[j] = o(core.PageID(rng.Intn(numPages)), uint16(rng.Intn(objsPP)))
			img := make([]byte, objSize)
			rng.Read(img)
			imgs[j] = img
		}
		if err := w.Append(&walRecord{Txn: core.TxnID(i + 1), Client: 1,
			Objs: objs, Images: imgs, Commit: true}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	dataImg, err := os.ReadFile(tpl + "/data.db")
	if err != nil {
		b.Fatal(err)
	}
	walImg, err := os.ReadFile(tpl + "/wal.log")
	if err != nil {
		b.Fatal(err)
	}

	var applied, applyNs, ttfcNs int64
	firstImg := make([]byte, objSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		if err := os.WriteFile(dir+"/data.db", dataImg, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(dir+"/wal.log", walImg, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		start := time.Now()
		srv, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: false})
		if err != nil {
			b.Fatal(err)
		}
		cEnd, sEnd := Pipe()
		if _, err := srv.Attach(sEnd); err != nil {
			b.Fatal(err)
		}
		cl, err := Connect(cEnd, ClientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tx, err := cl.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(o(0, 0), firstImg); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		ttfcNs += time.Since(start).Nanoseconds()
		b.StopTimer()

		stats := srv.RecoveryStats()
		applied += int64(stats.Records)
		applyNs += stats.ApplyNs
		cl.Close()
		srv.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if applyNs < 1 {
		applyNs = 1
	}
	b.ReportMetric(float64(applied)/(float64(applyNs)/1e9), "txn/s")
	b.ReportMetric(float64(ttfcNs)/float64(b.N), "ttfc-ns")
}
