package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The isolated probes: each layer's public entry points timed alone, from
// here, with nothing else running. They do not depend on the workload, so
// every traced run reports the same price list beside its own counters.

const probeBatches = 5

// probeBatch x probeBatches = at least 0.3 s per probe (a variable only
// so the smoke test can shrink it).
var probeBatch = 60 * time.Millisecond

// measure times fn(n) — n back-to-back operations — in probeBatches
// batches of at least probeBatch each and returns the median ns per
// operation. n is found by doubling, as testing.B does.
func measure(fn func(n int) error) (float64, error) {
	n := 1
	for {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d >= probeBatch || n >= 1<<30 {
			break
		} else if d < probeBatch/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	per := make([]float64, probeBatches)
	for i := range per {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(per)
	return per[probeBatches/2], nil
}

// runProbes fills every probe metric. dir is scratch space.
func runProbes(out metrics, dir string) error {
	for _, p := range []struct {
		name  string
		scale float64 // ns -> the metric's unit
		fn    func() (float64, error)
	}{
		{"core.locktab.grant_release_ns", 1, probeLockTab},
		{"core.copytab.register_holders_ns", 1, probeCopyTab},
		{"core.cache.install_evict_ns", 1, probeClientCache},
		{"core.engine.read_handle_ns", 1, probeEngineRead},
		{"core.engine.commit_handle_ns", 1, probeEngineCommit},
		{"obs.hist_observe_ns", 1, probeHistObserve},
		{"obs.heat_disabled_ns", 1, probeHeatDisabled},
		{"live.wire.pipe_rtt_ns", 1, func() (float64, error) {
			a, b := live.Pipe()
			return probeEcho(a, b, controlMsg())
		}},
		{"live.wire.tcp_control_rtt_us", 1e-3, func() (float64, error) { return probeTCPEcho(controlMsg()) }},
		{"live.wire.tcp_page_rtt_us", 1e-3, func() (float64, error) { return probeTCPEcho(pageMsg()) }},
		{"live.wire.tcp_commit_rtt_us", 1e-3, func() (float64, error) { return probeTCPEcho(commitMsg()) }},
		{"sim.probe_cell_ms", 1e-6, probeSimCell},
	} {
		v, err := p.fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = v * p.scale
	}
	if err := probeStore(out, filepath.Join(dir, "probe-store.db")); err != nil {
		return fmt.Errorf("probe live.store: %w", err)
	}
	if err := probeServer(out, dir); err != nil {
		return fmt.Errorf("probe live.server: %w", err)
	}
	return nil
}

// ---- core ----

func probeLockTab() (float64, error) {
	lt := core.NewLockTab()
	i := 0
	return measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			t := core.TxnID(i)
			for s := uint16(0); s < 8; s++ {
				lt.GrantObjX(t, 1, core.ObjID{Page: core.PageID(i % 64), Slot: s})
			}
			lt.ReleaseAll(t)
		}
		return nil
	})
}

// One operation registers four clients' copies of a page, asks who must
// be called back, and drops the copies again.
func probeCopyTab() (float64, error) {
	ct := core.NewCopyTab(false)
	i := 0
	return measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			p := core.PageID(i % 1024)
			for c := core.ClientID(1); c <= 4; c++ {
				ct.RegisterPage(c, p)
			}
			if len(ct.PageHolders(p, 1)) != 3 {
				return errors.New("copy table lost a holder")
			}
			for c := core.ClientID(1); c <= 4; c++ {
				ct.UnregisterPage(c, p, core.NoEpoch)
			}
		}
		return nil
	})
}

// A 312-page cache (the live default) cycled over 1250 pages: every
// install evicts.
func probeClientCache() (float64, error) {
	c := core.NewClientCache(false, workload.DefaultDBPages/4)
	i := 0
	return measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			c.InstallPage(core.PageID(i%workload.DefaultDBPages), nil)
			if i%64 == 0 {
				c.TakeDropped()
			}
		}
		return nil
	})
}

func newEngine() *core.ServerEngine {
	return core.NewServerEngine(core.PSAA, core.NewLayout(workload.DefaultDBPages, workload.DefaultObjsPerPage))
}

// One operation is a transaction of eight read requests on distinct
// pages and its (empty) commit, reported per read request.
func probeEngineRead() (float64, error) {
	se := newEngine()
	i := 0
	v, err := measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			t := core.TxnID(i)
			for k := 0; k < 8; k++ {
				p := core.PageID((i*8 + k) % workload.DefaultDBPages)
				se.Handle(&core.Msg{Kind: core.MReadReq, From: 1, Txn: t, Req: int64(k), Obj: core.ObjID{Page: p}, Page: p})
			}
			se.Handle(&core.Msg{Kind: core.MCommitReq, From: 1, Txn: t})
		}
		return nil
	})
	return v / 8, err
}

// One operation is a transaction that takes write permission on four
// pages and commits them: grant, lock release and the commit ack.
func probeEngineCommit() (float64, error) {
	se := newEngine()
	i := 0
	pages := make([]core.PageID, 4)
	return measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			t := core.TxnID(i)
			for k := range pages {
				pages[k] = core.PageID((i*4 + k) % workload.DefaultDBPages)
				se.Handle(&core.Msg{Kind: core.MWriteReq, From: 1, Txn: t, Req: int64(k), Obj: core.ObjID{Page: pages[k]}, Page: pages[k]})
			}
			out := se.Handle(&core.Msg{Kind: core.MCommitReq, From: 1, Txn: t, Pages: pages})
			if len(out) != 1 || out[0].Kind != core.MCommitAck {
				return errors.New("engine did not acknowledge the commit")
			}
		}
		return nil
	})
}

// ---- obs ----

func probeHistObserve() (float64, error) {
	h := obs.NewRegistry().Histogram("bench_probe_ns", "")
	i := int64(0)
	return measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			h.Observe(i & 0xffff)
		}
		return nil
	})
}

func probeHeatDisabled() (float64, error) {
	h := obs.NewHeat(obs.HeatOptions{})
	i := int32(0)
	return measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			h.RecordAccess(1, i&1023, i%20, i&3 == 0)
		}
		return nil
	})
}

// ---- live.wire ----
// The codec is unexported, so it is measured through the narrowest
// exported caller: a Conn carrying one message there and back.

func controlMsg() *core.Msg {
	return &core.Msg{Kind: core.MCallbackAck, From: 4, Txn: 42, Req: 7, Purged: true,
		Obj: core.ObjID{Page: 3, Slot: 2}, Epoch: 5}
}

func pageMsg() *core.Msg {
	return &core.Msg{Kind: core.MPageData, To: 3, Txn: 77, Req: 12, Page: 9, Grant: core.GrantPage,
		Unavail: []uint16{1, 7}, Data: make([]byte, 4092)}
}

// commitMsg is a HOTCOLD-sized commit: twelve 204-byte afterimages.
func commitMsg() *core.Msg {
	m := &core.Msg{Kind: core.MCommitReq, From: 2, Txn: 1234567, Req: 99, Updates: map[core.ObjID][]byte{}}
	for i := 0; i < 12; i++ {
		m.Pages = append(m.Pages, core.PageID(i))
		m.Updates[core.ObjID{Page: core.PageID(i), Slot: uint16(i)}] = make([]byte, 204)
	}
	return m
}

// probeEcho times m going a -> b and coming back b -> a. Both ends are
// closed before it returns, which also ends the echo goroutine.
func probeEcho(a, b live.Conn, m *core.Msg) (float64, error) {
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			got, err := b.Recv()
			if err != nil || b.Send(got) != nil {
				return
			}
		}
	}()
	v, err := measure(func(n int) error {
		for ; n > 0; n-- {
			if err := a.Send(m); err != nil {
				return err
			}
			if _, err := a.Recv(); err != nil {
				return err
			}
		}
		return nil
	})
	a.Close()
	b.Close()
	<-echoed
	return v, err
}

func probeTCPEcho(m *core.Msg) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	c2, err := ln.Accept()
	if err != nil {
		c1.Close()
		return 0, err
	}
	return probeEcho(live.NewTCPConn(c1), live.NewTCPConn(c2), m)
}

// ---- live.store ----

func probeStore(out metrics, path string) error {
	st, err := live.CreateStore(path, 4096, workload.DefaultObjsPerPage, workload.DefaultDBPages)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer st.Close()
	i := 0
	out["live.store.read_page_ns"], err = measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			if _, err := st.ReadPage(core.PageID(i % workload.DefaultDBPages)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	img := make([]byte, st.ObjSize())
	out["live.store.write_obj_ns"], err = measure(func(n int) error {
		for ; n > 0; n-- {
			i++
			o := core.ObjID{Page: core.PageID(i % workload.DefaultDBPages), Slot: uint16(i % workload.DefaultObjsPerPage)}
			if err := st.WriteObj(o, img); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Flush: dirty every page, write them all back, fsync; median of five.
	flushes := make([]float64, probeBatches)
	for k := range flushes {
		for p := 0; p < workload.DefaultDBPages; p++ {
			if err := st.WriteObj(core.ObjID{Page: core.PageID(p)}, img); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := st.Flush(); err != nil {
			return err
		}
		flushes[k] = float64(time.Since(t0)) / 1e6 * 1000 / workload.DefaultDBPages
	}
	out["live.store.flush_ms_per_kpage"] = median(flushes)
	return nil
}

// ---- live.server ----

// probeServer measures one client against a fresh default server: an
// uncached read over each session path, a one-object commit with and
// without fsync, and REDO replay of the fsynced commits after a crash.
func probeServer(out metrics, dir string) error {
	for _, p := range []struct {
		transport string
		syncWAL   bool
	}{{live.TransportGoroutine, false}, {live.TransportReactor, false}, {live.TransportGoroutine, true}} {
		d, err := os.MkdirTemp(dir, "probe-srv-")
		if err != nil {
			return err
		}
		err = probeOneServer(out, d, p.transport, p.syncWAL)
		os.RemoveAll(d)
		if err != nil {
			return fmt.Errorf("%s sync=%v: %w", p.transport, p.syncWAL, err)
		}
	}
	return nil
}

func probeOneServer(out metrics, dir, transport string, syncWAL bool) error {
	opts := live.ServerOptions{Proto: core.PSAA, SyncWAL: syncWAL, Transport: transport}
	srv, err := live.OpenServer(dir, opts)
	if err != nil {
		return err
	}
	addr, serveErr, err := listen(srv)
	if err != nil {
		srv.Close()
		return err
	}
	defer func() { srv.Close(); <-serveErr }()
	if got := srv.Transport(); got != transport {
		return fmt.Errorf("server runs transport %q, want %q", got, transport)
	}

	// A 16-page cache cycled over the whole database: every read misses.
	small := live.ClientOptions{CachePages: 16}

	if syncWAL {
		cl, err := attachPipe(srv, small)
		if err != nil {
			return err
		}
		defer cl.Close()
		var commits uint64
		if out["live.server.commit_rtt_us.sync"], commits, err = probeCommit(cl); err != nil {
			return err
		}
		// Replay: everything the probe committed is in the log (there was
		// no checkpoint), so a crash and reopen replays all of it — and
		// every commit was acknowledged after its fsync, so the counter
		// must read exactly that many. This is the durability check the
		// listed workloads (all SyncWAL=false) cannot make.
		logBytes := float64(srv.Metrics().CounterValue("oodb_wal_appended_bytes_total"))
		srv.Crash()
		srv2, err := live.OpenServer(dir, opts)
		if err != nil {
			return fmt.Errorf("reopen after crash: %w", err)
		}
		defer srv2.Close()
		rs := srv2.RecoveryStats()
		if rs.Records == 0 {
			return errors.New("recovery replayed no records")
		}
		out["live.wal.replay_mb_per_s"] = logBytes / 1e6 / (float64(rs.DurationNs) / 1e9)
		if got, err := readCounter(srv2, probeObj); err != nil {
			return err
		} else if got != commits {
			return fmt.Errorf("durability: %d commits acknowledged after fsync, %d readable after crash and reopen", commits, got)
		}
		return nil
	}

	cl, err := dialTCP(addr, small)
	if err != nil {
		return err
	}
	defer cl.Close()
	if out["live.server.read_miss_rtt_us."+transport], err = probeReadMiss(cl); err != nil {
		return err
	}
	if transport != live.TransportGoroutine {
		return nil
	}
	pcl, err := attachPipe(srv, small)
	if err != nil {
		return err
	}
	defer pcl.Close()
	if out["live.server.read_miss_rtt_us.pipe"], err = probeReadMiss(pcl); err != nil {
		return err
	}
	out["live.server.commit_rtt_us.nosync"], _, err = probeCommit(pcl)
	return err
}

// probeReadMiss returns µs per uncached Txn.Read.
func probeReadMiss(cl *live.Client) (float64, error) {
	pages, _ := cl.Geometry()
	i := 0
	v, err := measure(func(n int) error {
		for n > 0 {
			tx, err := cl.Begin()
			if err != nil {
				return err
			}
			for k := 0; k < 8 && n > 0; k, n = k+1, n-1 {
				i++
				if _, err := tx.Read(core.ObjID{Page: core.PageID(i % pages)}); err != nil {
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	return v / 1e3, err
}

// probeObj is the counter probeCommit increments.
var probeObj = core.ObjID{Page: 1}

// probeCommit returns µs per Txn.Commit of one updated object on a page
// the client already holds, and how many commits were acknowledged.
func probeCommit(cl *live.Client) (us float64, commits uint64, err error) {
	var inCommit time.Duration
	_, err = measure(func(n int) error {
		for ; n > 0; n-- {
			tx, err := cl.Begin()
			if err != nil {
				return err
			}
			if err := tx.Update(probeObj, inc); err != nil {
				return err
			}
			t0 := time.Now()
			if err := tx.Commit(); err != nil {
				return err
			}
			inCommit += time.Since(t0)
			commits++
		}
		return nil
	})
	return ratio(float64(inCommit), float64(commits)) / 1e3, commits, err
}

// readCounter reads o's counter through a fresh client.
func readCounter(srv *live.Server, o core.ObjID) (uint64, error) {
	cl, err := attachPipe(srv, live.ClientOptions{})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		return 0, err
	}
	b, err := tx.Read(o)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), tx.Commit()
}

// ---- sim ----

// probeSimCell times one fixed simulator cell (PS-AA on HOTCOLD, write
// probability 0.15, 2+8 virtual seconds): internal/core + internal/sim +
// internal/model with no live code.
func probeSimCell() (float64, error) {
	return measure(func(n int) error {
		for ; n > 0; n-- {
			rep := experiments.RunSweeps([]*experiments.Sweep{{
				ID:         "probe",
				Spec:       func(wp float64) workload.Spec { return workload.HotColdSpec(workload.LowLocality, wp) },
				WriteProbs: []float64{0.15},
				Protocols:  []core.Protocol{core.PSAA},
			}}, experiments.Opts{Seed: 1, Warmup: 2, Measure: 8, Batches: 2, Jobs: 1}, experiments.Hooks{})
			if len(rep.Errors) > 0 {
				return rep.Errors[0]
			}
		}
		return nil
	})
}
