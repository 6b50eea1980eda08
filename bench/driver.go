package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the live driver of internal/workload's generators: one
// goroutine and one connection per client, each replaying its own seeded
// reference string in the order generated (unclustered), retrying the
// same string when the server picks it as a deadlock victim.

// env is one server with its C connected clients.
type env struct {
	dir      string
	srv      *live.Server
	serveErr chan error // ListenAndServe's result (TCP workloads only)
	clients  []*client
}

// client is one workstation: connection, generator, oracle and samples.
type client struct {
	id      int // 0-based
	cl      *live.Client
	gen     *workload.Generator
	fetches *obs.Counter // oodb_client_fetches_total of this client alone
	hits    *obs.Counter
	misses  *obs.Counter

	// Oracle: increments acknowledged per object, and increments whose
	// commit returned a non-abort error (outcome unknown).
	acked   map[core.ObjID]uint64
	inDoubt map[core.ObjID]uint64

	attempted, failed, aborts int
	userBytes                 int64 // bytes handed to Txn.Update's result
	txns                      []txnSample
	rec                       *recorder // non-nil in the traced pass
	err                       error     // first non-abort failure; the client stops on it
}

// txnSample is one committed logical transaction: when it ended (ns since
// the window opened), what the caller waited, and the Commit call alone.
type txnSample struct {
	end, txnNs, commitNs int64
}

var errRetriesExhausted = errors.New("bench: deadlock retries exhausted")

// openServer opens (creating or recovering) the workload's server in dir.
//
// One engine shard, not the default min(8, GOMAXPROCS): with two or more,
// the cross-shard deadlock detector aborts transactions that are no
// longer blocked (MAbortYou with Req 0), the victim's in-flight request
// is then granted into a finished transaction, and the client panics in
// core.ClientState — within seconds on interleaved_sharing, in two runs
// of five on hotcold with four clients. A benchmark that gates PRs cannot
// carry that risk; README "Found while building" has the trace.
func openServer(w *liveWorkload, dir string) (*live.Server, error) {
	return live.OpenServer(dir, live.ServerOptions{Proto: core.PSAA, SyncWAL: w.SyncWAL, Shards: 1})
}

// attachPipe connects one in-process client.
func attachPipe(srv *live.Server, opts live.ClientOptions) (*live.Client, error) {
	cEnd, sEnd := live.Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		return nil, err
	}
	return live.Connect(cEnd, opts)
}

// dialTCP connects one client over loopback TCP.
func dialTCP(addr string, opts live.ClientOptions) (*live.Client, error) {
	conn, err := live.Dial(addr)
	if err != nil {
		return nil, err
	}
	return live.Connect(conn, opts)
}

// listen serves srv on a loopback port and returns its address and the
// channel ListenAndServe's result arrives on once the server is closed.
func listen(srv *live.Server) (addr string, serveErr chan error, err error) {
	serveErr = make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0") }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if addr = srv.Addr(); addr != "" {
			return addr, serveErr, nil
		}
		select {
		case err := <-serveErr:
			return "", nil, fmt.Errorf("listen: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			// Closing the server is what ends ListenAndServe.
			srv.Close()
			<-serveErr
			return "", nil, errors.New("server never started listening")
		}
	}
}

// openEnv creates a fresh database in dir, serves it and connects the
// clients, each with the generator for (spec, seed+i).
func openEnv(w *liveWorkload, dir string, seed int64) (*env, error) {
	srv, err := openServer(w, dir)
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, srv: srv}
	addr := ""
	if w.TCP {
		if addr, e.serveErr, err = listen(srv); err != nil {
			srv.Close()
			return nil, err
		}
	}
	spec := w.Spec()
	layout := spec.Layout()
	for i := 0; i < spec.NumClients; i++ {
		// A registry per client, so its fetch counter is this client's alone.
		reg := obs.NewRegistry()
		opts := live.ClientOptions{Metrics: reg}
		var cl *live.Client
		if w.TCP {
			cl, err = dialTCP(addr, opts)
		} else {
			cl, err = attachPipe(srv, opts)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("connect client %d: %w", i, err)
		}
		e.clients = append(e.clients, &client{
			id: i, cl: cl,
			gen:     workload.NewGenerator(spec, layout, i+1, rand.New(rand.NewSource(seed+int64(i)))),
			fetches: reg.Counter("oodb_client_fetches_total", ""),
			hits:    reg.Counter(`oodb_client_cache_hits_total{kind="page"}`, ""),
			misses:  reg.Counter(`oodb_client_cache_misses_total{kind="page"}`, ""),
			acked:   make(map[core.ObjID]uint64),
			inDoubt: make(map[core.ObjID]uint64),
		})
	}
	return e, nil
}

// closeClients drops every client connection.
func (e *env) closeClients() {
	for _, c := range e.clients {
		c.cl.Close()
	}
}

// close shuts clients and server down and waits for the listener.
func (e *env) close() error {
	e.closeClients()
	err := e.srv.Close()
	if e.serveErr != nil {
		if serr := <-e.serveErr; err == nil {
			err = serr
		}
		e.serveErr = nil
	}
	return err
}

// crash fail-stops the server (unsynced WAL bytes are discarded, nothing
// is flushed) and drops the clients.
func (e *env) crash() {
	e.srv.Crash()
	e.closeClients()
	if e.serveErr != nil {
		<-e.serveErr
		e.serveErr = nil
	}
}

// each runs fn on every client's own goroutine and waits for all.
func (e *env) each(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// firstErr returns the first client failure.
func (e *env) firstErr() error {
	for _, c := range e.clients {
		if c.err != nil {
			return fmt.Errorf("client %d: %w", c.id, c.err)
		}
	}
	return nil
}

// warm replays the fixed warm-up prefix of every client's string.
func (e *env) warm() error {
	base := time.Now()
	e.each(func(c *client) {
		for i := 0; i < warmTxns && c.err == nil; i++ {
			c.runLogical(c.gen.NextTxn(), base, false, 0)
		}
		c.txns = c.txns[:0]
	})
	return e.firstErr()
}

// window is the timed closed loop: every client issues its next
// transaction the moment the previous one is acknowledged, until the
// window closes. Slice i covers [i, i+1) x sliceLen; in the traced pass
// odd slices record spans and even slices run bare, so the two halves see
// the same server state and their throughput ratio is the tracing cost.
type window struct {
	base     time.Time
	sliceLen time.Duration
	slices   int
	trace    bool
}

func newWindow(seconds int, trace bool) window {
	n := seconds + seconds%2
	return window{sliceLen: time.Duration(seconds) * time.Second / time.Duration(n), slices: n, trace: trace}
}

func (win *window) run(e *env) error {
	win.base = time.Now()
	end := int64(win.sliceLen) * int64(win.slices)
	e.each(func(c *client) {
		for c.err == nil {
			at := int64(time.Since(win.base))
			if at >= end {
				return
			}
			traced := win.trace && (at/int64(win.sliceLen))%2 == 1
			var refs []workload.Ref
			if traced {
				refs = c.rec.nextTxn(c.gen, win.base)
			} else {
				refs = c.gen.NextTxn()
			}
			c.runLogical(refs, win.base, traced, at)
		}
	})
	return e.firstErr()
}

// inc is the write every workload performs: bump the little-endian
// uint64 in the object's first 8 bytes, rewriting the whole object.
func inc(old []byte) []byte {
	out := append([]byte(nil), old...)
	binary.LittleEndian.PutUint64(out, binary.LittleEndian.Uint64(out)+1)
	return out
}

// runLogical runs one logical transaction to its commit ack, retrying
// the same reference string when the server aborts it as a deadlock
// victim. What the caller waited (first Begin to ack, retries included)
// is the transaction's latency. A failure stops the client.
func (c *client) runLogical(refs []workload.Ref, base time.Time, traced bool, rootStart int64) {
	c.attempted++
	start := int64(time.Since(base))
	for attempt := 0; attempt <= maxRetries; attempt++ {
		commitNs, err := c.attempt(refs, base, traced)
		if err == nil {
			end := int64(time.Since(base))
			c.txns = append(c.txns, txnSample{end: end, txnNs: end - start, commitNs: commitNs})
			if traced {
				c.rec.closeTxn(rootStart, end)
			}
			return
		}
		if !errors.Is(err, live.ErrAborted) {
			c.failed++
			c.err = err
			return
		}
		c.aborts++
	}
	c.failed++
	c.err = errRetriesExhausted
}

// attempt runs refs once. With traced set every call into the client is
// a span; one clock read closes a span and opens the next, so the spans
// tile the transaction.
func (c *client) attempt(refs []workload.Ref, base time.Time, traced bool) (commitNs int64, err error) {
	var t int64
	if traced {
		t = int64(time.Since(base))
	}
	tx, err := c.cl.Begin()
	if err != nil {
		return 0, err
	}
	if traced {
		t = c.rec.add(spBegin, t, base)
	}
	for _, r := range refs {
		var before int64
		if traced {
			before = c.fetches.Value()
		}
		if r.Write {
			err = tx.Update(r.Obj, inc)
		} else {
			_, err = tx.Read(r.Obj)
		}
		if err != nil {
			if !errors.Is(err, live.ErrAborted) {
				tx.Abort()
			}
			return 0, err
		}
		if traced {
			kind := spReadHit
			switch {
			case r.Write:
				kind = spWrite
			case c.fetches.Value() != before:
				kind = spReadMiss
			}
			t = c.rec.add(kind, t, base)
		}
	}
	commitStart := time.Now()
	err = tx.Commit()
	commitNs = int64(time.Since(commitStart))
	if traced {
		c.rec.add(spCommit, t, base)
	}
	ledger := c.acked
	switch {
	case err == nil:
	case errors.Is(err, live.ErrAborted):
		return 0, err
	default:
		ledger = c.inDoubt
	}
	objSize := c.cl.ObjSize()
	for _, r := range refs {
		if r.Write {
			ledger[r.Obj]++
			c.userBytes += int64(objSize)
		}
	}
	return commitNs, err
}

// verify is the oracle: a fresh client reads every object any client
// incremented and requires acked <= value <= acked + in-doubt.
func verify(srv *live.Server, clients []*client) (checked int, err error) {
	acked := make(map[core.ObjID]uint64)
	doubt := make(map[core.ObjID]uint64)
	for _, c := range clients {
		for o, n := range c.acked {
			acked[o] += n
		}
		for o, n := range c.inDoubt {
			acked[o] += 0 // an object only ever in doubt is still read
			doubt[o] += n
		}
	}
	objs := make([]core.ObjID, 0, len(acked))
	for o := range acked {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Page != objs[j].Page {
			return objs[i].Page < objs[j].Page
		}
		return objs[i].Slot < objs[j].Slot
	})
	cl, err := attachPipe(srv, live.ClientOptions{})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	// One read-only transaction per 64 objects keeps the reader's pinned
	// set far below its cache.
	for len(objs) > 0 {
		n := min(64, len(objs))
		tx, err := cl.Begin()
		if err != nil {
			return checked, err
		}
		for _, o := range objs[:n] {
			b, err := tx.Read(o)
			if err != nil {
				return checked, fmt.Errorf("oracle read %v: %w", o, err)
			}
			v := binary.LittleEndian.Uint64(b)
			if v < acked[o] || v > acked[o]+doubt[o] {
				return checked, fmt.Errorf("oracle: object %v holds %d, want [%d, %d]", o, v, acked[o], acked[o]+doubt[o])
			}
			checked++
		}
		if err := tx.Commit(); err != nil {
			return checked, err
		}
		objs = objs[n:]
	}
	return checked, nil
}

// firstCommit attaches a client and commits one increment.
func firstCommit(srv *live.Server) error {
	cl, err := attachPipe(srv, live.ClientOptions{})
	if err != nil {
		return err
	}
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		return err
	}
	if err := tx.Update(core.ObjID{}, inc); err != nil {
		return err
	}
	return tx.Commit()
}

// liveResult is what one run of a live workload produced.
type liveResult struct {
	attempted, failed int
	m                 metrics // every metric the pass measured, by name
	notes             []string
}

// setupRepeats is how many times a run sets up from scratch (fresh
// store, server, connections, warm-up); setup_s is their median, and the
// window runs on the last.
const setupRepeats = 5

// runLive runs one live workload: set-up, timed window, oracle.
func runLive(w *liveWorkload, seed int64, seconds int, trace bool, outDir string) (*liveResult, error) {
	runDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var setups []float64
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	repeats := setupRepeats
	if trace {
		repeats = 1 // set-up time is an end-to-end metric
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if e, err = openEnv(w, filepath.Join(runDir, fmt.Sprint("db", i)), seed); err != nil {
			return nil, err
		}
		if err = e.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (startup + time.Since(t0)).Seconds())
		if i < repeats-1 {
			e.crash() // no flush: the set-up is discarded
			os.RemoveAll(e.dir)
		}
	}

	win := newWindow(seconds, trace)
	if trace {
		for _, c := range e.clients {
			c.rec = &recorder{}
		}
	}
	before := snapshot(e)
	if err := win.run(e); err != nil {
		return nil, err
	}
	res := &liveResult{m: metrics{}}
	after := snapshot(e)
	if trace {
		// The checkpoint belongs to the layer interval: it is the only
		// store flush (and, without SyncWAL, the only WAL force) a
		// default server ever does.
		t0 := time.Now()
		if err := e.srv.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		res.m["live.server.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
		after = snapshot(e)
	}

	// Oracle. On the durable workload every acknowledged write must be
	// readable from what was fsynced: crash, reopen, then read. restart_s
	// is that reopen, up to the first new commit's acknowledgement.
	srv := e.srv
	if w.SyncWAL {
		e.crash()
		t0 := time.Now()
		if srv, err = openServer(w, e.dir); err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		defer srv.Close()
		if err := firstCommit(srv); err != nil {
			return nil, fmt.Errorf("first commit after restart: %w", err)
		}
		res.m["restart_s"] = time.Since(t0).Seconds()
		e.clients[0].acked[core.ObjID{}]++
	}
	checked, verr := verify(srv, e.clients)
	if verr != nil {
		res.notes = append(res.notes, verr.Error())
	}

	sliceStats(res, e.clients, win)
	layerCounters(res.m, before, after)
	for _, c := range e.clients {
		res.attempted += c.attempted
		res.failed += c.failed
	}
	if verr != nil {
		res.failed++
	}
	if err := w.Valid(res.m); err != nil {
		res.failed++
		res.notes = append(res.notes, "invalid workload: "+err.Error())
	}
	res.notes = append(res.notes, fmt.Sprintf("oracle checked %d objects", checked))
	res.m["setup_s"] = median(setups)
	res.notes = append(res.notes, fmt.Sprintf("set-ups, s %.3f", setups))
	res.m["peak_rss_mb"] = peakRSSMB()
	if trace {
		traceMetrics(res, e.clients)
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), e.clients); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sliceStats turns the committed-transaction samples into the end-to-end
// rates and latencies. Each is computed per slice and the window reports
// the quartile of slices on the good side (upper for the rate, lower for
// a latency): what the host does to the process — a neighbour on the
// core, a throttled vCPU, for 5 to 70 s at a time on the sandbox this was
// written on — only ever slows a slice, so the least disturbed quarter of
// the window is the steadier estimate of what the program does, while a
// change to the program moves every slice. The traced pass compares like
// with like the same way.
func sliceStats(res *liveResult, clients []*client, win window) {
	type slice struct{ txn, commit []int64 }
	perSlice := make([]slice, win.slices)
	for _, c := range clients {
		for _, s := range c.txns {
			if i := int(s.end / int64(win.sliceLen)); i < win.slices {
				perSlice[i].txn = append(perSlice[i].txn, s.txnNs)
				perSlice[i].commit = append(perSlice[i].commit, s.commitNs)
			}
		}
	}
	var traced, bare, t50, t99, c50, c99 []float64
	samples := 0
	for i := range perSlice {
		s := &perSlice[i]
		rate := float64(len(s.txn)) / win.sliceLen.Seconds()
		if win.trace && i%2 == 1 {
			traced = append(traced, rate)
			continue
		}
		bare = append(bare, rate)
		if len(s.txn) == 0 {
			continue
		}
		samples += len(s.txn)
		slices.Sort(s.txn)
		slices.Sort(s.commit)
		t50 = append(t50, float64(percentile(s.txn, 50))/1e6)
		t99 = append(t99, float64(percentile(s.txn, 99))/1e6)
		c50 = append(c50, float64(percentile(s.commit, 50))/1e6)
		c99 = append(c99, float64(percentile(s.commit, 99))/1e6)
	}
	res.m["txn_per_s"] = quartile(bare, 3)
	res.m["txn_p50_ms"] = quartile(t50, 1)
	res.m["txn_p99_ms"] = quartile(t99, 1)
	res.m["commit_p50_ms"] = quartile(c50, 1)
	res.m["commit_p99_ms"] = quartile(c99, 1)
	res.notes = append(res.notes,
		fmt.Sprintf("latency samples %d over %d untraced slices of %v", samples, len(bare), win.sliceLen),
		fmt.Sprintf("txn/s by untraced slice %.0f", bare), fmt.Sprintf("txn p50 ms by untraced slice %.3f", t50))
	if win.trace {
		res.m["trace.overhead_share"] = 1 - ratio(quartile(traced, 3), quartile(bare, 3))
	}
}
