package live

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Server is the live page-server DBMS process: it owns the store and log,
// runs the protocol engine under one lock, and serves client sessions
// over transports.
type Server struct {
	opts   ServerOptions
	layout *core.Layout

	registry *obs.Registry
	metrics  *serverMetrics
	tracer   *obs.Tracer
	heat     *obs.Heat
	spans    *obs.Spans
	flight   *obs.FlightRecorder // nil unless BlackboxDir is set

	// engMu is the engine lock. It guards eng, blockStart, every engine
	// step's staging, each commit's WAL append and store installs, the
	// relocation table's writes and every checkpoint (DESIGN.md §13);
	// lockEngine and unlockEngine take and release it, measuring both
	// sides. A waiter spins on it briefly before it parks (spin). Lock
	// order: engMu -> s.mu.
	engMu sync.Mutex
	eng   *core.ServerEngine
	spin  spinWait

	store *Store
	wal   *WAL
	dir   string // database directory (relocs.db lives beside data.db)

	// Online-reclustering state. relocs is the authoritative redirect
	// table (nil when the store has no spare region and no relocations —
	// reclustering inert); userPages is the client-visible page count
	// (physical minus the spare region). The planner's session is the
	// engine's system client (core.ServerEngine.IsSystem), exempt from the
	// front door and excluded from heat and user stats.
	relocs    *relocTable
	userPages int
	recl      *recluster // background planner; nil unless opts.Recluster

	// recovery is what the opening replay did (see RecoveryStats).
	recovery RecoveryStats

	// sessions is copy-on-write: readers (stage, routing, the watchdog,
	// the sessions gauge) load the map lock-free; Attach/detach/close
	// replace it under s.mu.
	sessions atomic.Pointer[map[core.ClientID]*session]

	// closedFlag mirrors closed for lock-free checks on hot/failure
	// paths. Set (under s.mu) before the store and log are torn down.
	closedFlag atomic.Bool

	mu     sync.Mutex // admin state below
	nextID core.ClientID
	closed bool
	failed error // injected crash that fail-stopped the server

	// blockStart records when each blocked transaction's queued request
	// first blocked (feeds the lock-wait histograms). Under engMu.
	blockStart map[core.TxnID]time.Time

	// stop is closed (once, by stopLocked) to end every background loop;
	// wg counts those loops and the socket sessions' driver goroutines,
	// and join waits on it.
	stop chan struct{}
	wg   sync.WaitGroup

	// pipeCalls counts the pipe sessions' receiver calls in progress. They
	// run on their senders' goroutines, which wg cannot count, so join
	// waits for this to drain instead (deliverPipe); pipeIdle is signalled
	// under pipeMu when it does, once the server is stopped.
	pipeCalls atomic.Int64
	pipeMu    sync.Mutex
	pipeIdle  sync.Cond

	ln net.Listener // optional TCP listener

	// reactor is the epoll transport driving TCP sessions when
	// Transport == TransportReactor (nil until ListenAndServe, and on
	// platforms where the reactor is unsupported). transport is the
	// transport actually in effect for TCP sessions, set at listen time
	// (it records the fallback when the reactor is unavailable); guarded
	// by s.mu.
	reactor   atomic.Pointer[reactor]
	transport string
}

// sessionMap returns the current copy-on-write session map (never nil).
func (s *Server) sessionMap() map[core.ClientID]*session {
	return *s.sessions.Load()
}

// sessionOf returns the attached session for id, or nil.
func (s *Server) sessionOf(id core.ClientID) *session {
	return (*s.sessions.Load())[id]
}

// OpenServer opens (creating if absent) the database in dir and recovers
// from the log. The directory holds "data.db" and "wal.log".
func OpenServer(dir string, opts ServerOptions) (*Server, error) {
	opts.defaults()
	if opts.Transport != TransportGoroutine && opts.Transport != TransportReactor {
		return nil, fmt.Errorf("live: unknown transport %q (want %q or %q)",
			opts.Transport, TransportGoroutine, TransportReactor)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, "data.db")
	walPath := filepath.Join(dir, "wal.log")

	var store *Store
	var relocs *relocTable
	var err error
	if _, statErr := os.Stat(dataPath); !errors.Is(statErr, os.ErrNotExist) {
		store, err = OpenStore(dataPath)
	} else if opts.Recluster {
		// Reclustering reserves a spare region past the user-visible
		// geometry (NumPages/8 pages, clamped to [4, 256]): migrations
		// allocate destination slots there. The spare count persists in
		// relocs.db (written before the store can take a commit), and
		// clients are told only the user page count.
		spare := min(max(opts.NumPages/8, 4), 256)
		store, err = CreateStore(dataPath, opts.PageSize, opts.ObjsPerPage, opts.NumPages+spare)
		if err == nil {
			relocs = &relocTable{spare: int32(spare)}
			relocs.publish(make(map[core.ObjID]core.ObjID))
			if err = relocs.save(dir); err != nil {
				store.Close()
			}
		}
	} else {
		store, err = CreateStore(dataPath, opts.PageSize, opts.ObjsPerPage, opts.NumPages)
	}
	if err != nil {
		return nil, err
	}
	if relocs == nil {
		relocs, err = loadRelocTable(dir)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	opts.ObjsPerPage, opts.NumPages = store.ObjsPerPage(), store.NumPages()
	userPages := opts.NumPages
	if relocs != nil {
		userPages -= int(relocs.spare)
		if userPages <= 0 {
			store.Close()
			return nil, fmt.Errorf("live: %s claims %d spare pages but the store has only %d", relocFile, relocs.spare, opts.NumPages)
		}
	}

	// Redo recovery, in one pass over the log: each committed record's
	// images go to the store and its relocations into the table as the
	// record is read, so replay holds one record at a time. The flushed
	// store and the saved table then make the log redundant. A failed
	// replay closes the store without flushing, and a flush replaces
	// data.db only whole, so a crash anywhere in here (the
	// recover.mid-replay and store.flush.* crash points) leaves data.db
	// and the log as they were for the next attempt.
	wal, recov, err := replay(walPath, store, relocs)
	if err != nil {
		store.closeRaw()
		return nil, fmt.Errorf("live: recovery failed: %w", err)
	}
	if relocs != nil && len(relocs.view().m) > 0 {
		if err := relocs.save(dir); err != nil {
			store.Close()
			wal.Close()
			return nil, err
		}
	}
	if err := wal.Truncate(); err != nil {
		store.Close()
		wal.Close()
		return nil, err
	}
	wal.SyncOnCommit = opts.SyncWAL

	layout := core.NewLayout(opts.NumPages, opts.ObjsPerPage)
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:       opts,
		layout:     layout,
		registry:   reg,
		metrics:    newServerMetrics(reg),
		tracer:     obs.NewTracer(obs.DefaultTraceBuf),
		heat:       obs.NewHeat(obs.HeatOptions{}),
		spans:      obs.NewSpans(reg),
		flight:     obs.NewFlightRecorder(opts.BlackboxDir, obs.DefaultBlackboxMax),
		store:      store,
		wal:        wal,
		dir:        dir,
		spin:       newSpinWait(),
		relocs:     relocs,
		userPages:  userPages,
		recovery:   recov,
		blockStart: make(map[core.TxnID]time.Time),
		stop:       make(chan struct{}),
	}
	s.pipeIdle.L = &s.pipeMu
	s.heat.SetEnabled(opts.Heat)
	s.heat.RegisterMetrics(reg)
	s.metrics.recoveryPagesReplayed.Add(int64(recov.PagesReplayed))
	empty := make(map[core.ClientID]*session)
	s.sessions.Store(&empty)

	s.eng = core.NewServerEngine(opts.Proto, layout)
	s.eng.Trace = s.onEngineTrace
	s.eng.RegisterMetrics(reg)
	reg.FuncGauge("oodb_server_sessions", "attached client sessions",
		func() int64 { return int64(len(s.sessionMap())) })
	wal.metrics = s.metrics
	if opts.CallbackTimeout > 0 {
		interval := opts.CallbackTimeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		s.background(interval, s.sweepLeases)
	}
	// Rotating the heat epoch makes sketches decay and false-sharing
	// scores fold while the collector is on; on a disabled (empty)
	// collector it is a few empty-map walks.
	s.background(opts.heatEpoch, func() bool { s.heat.Rotate(); return false })
	if opts.Recluster && s.relocs != nil && s.relocs.spare > 0 {
		if err := s.startRecluster(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// background runs fn on every tick of period until the server stops or fn
// reports it is done. The callback watchdog, heat rotation and recluster
// planner all run on it, so they share the one stop channel stopLocked
// closes and the one WaitGroup join waits on.
func (s *Server) background(period time.Duration, fn func() (done bool)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if s.closedFlag.Load() || fn() {
				return
			}
		}
	}()
}

// sweepLeases disconnects every session that has overstayed
// CallbackTimeout — sitting on a callback answer, or leaving its pump parked
// in one write (closing the socket unparks it) — through the normal
// departure path (their callbacks are self-answered, copies dropped,
// transactions aborted). The watchdog's tick.
func (s *Server) sweepLeases() (done bool) {
	now := time.Now()
	var dead []core.ClientID
	for id, sess := range s.sessionMap() {
		if sess.overdue(now) || sess.stalled(now, s.opts.CallbackTimeout) {
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		s.metrics.leaseExpiries.Inc()
		s.tracer.Emit(obs.EvLeaseExpiry, 0, int32(id), 0, 0, 0)
		s.detach(id)
	}
	return false
}

// Proto returns the server's protocol.
func (s *Server) Proto() core.Protocol { return s.opts.Proto }

// Geometry returns the client-visible (numPages, objsPerPage, objSize).
// With reclustering the store carries a spare region past numPages that
// only migrations address; clients reach it solely through redirects.
func (s *Server) Geometry() (int, int, int) {
	return s.userPages, s.store.ObjsPerPage(), s.store.ObjSize()
}

// Sessions returns the number of attached client sessions.
func (s *Server) Sessions() int {
	return len(s.sessionMap())
}

// Stats returns a snapshot of the protocol engine statistics. The
// counters are atomics, so this never takes the engine lock.
func (s *Server) Stats() core.ServerStats { return s.eng.Stats.Snapshot() }

// Metrics returns the server's metrics registry. Collection reads
// atomics and copy-on-write state only and never takes the engine lock,
// so a scrape cannot stall the engine, nor a long engine step a scrape.
func (s *Server) Metrics() *obs.Registry { return s.registry }

// Tracer returns the server's event tracer (disabled until SetEnabled).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Heat returns the server's access-heat collector (disabled until
// SetEnabled or ServerOptions.Heat).
func (s *Server) Heat() *obs.Heat { return s.heat }

// Spans returns the commit-stage span recorder.
func (s *Server) Spans() *obs.Spans { return s.spans }

// FlightDump writes a blackbox dump (trace ring + heat snapshot + spans +
// metrics) with the given reason and returns its path. A no-op returning
// "" when no BlackboxDir is configured. Use it from audit failures; the
// server triggers it itself on serve-path panics and injected fail-stops.
func (s *Server) FlightDump(reason string) (string, error) {
	return s.flight.Dump(reason, s.tracer, s.heat, s.spans, s.registry)
}

// ListenAndServe accepts TCP connections on addr until Close. The
// per-session machinery behind each accepted socket is chosen by
// ServerOptions.Transport; the handshake always runs on a short-lived
// goroutine per accept (bounded by handshakeTimeout), so a slowloris
// dialer that never sends its version byte cannot stall other accepts
// under either transport.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Read once, here: the per-accept goroutines below are not joined by
	// Close, and tests that shorten the variable must not race a straggler.
	timeout := handshakeTimeout
	attach := s.attachGoroutine
	transport := TransportGoroutine
	if s.opts.Transport == TransportReactor {
		if r, rerr := newReactor(s); rerr == nil {
			s.reactor.Store(r)
			attach = func(c net.Conn) { s.attachReactor(r, c) }
			transport = TransportReactor
		}
		// else: no epoll on this platform — fall back cleanly to the
		// goroutine transport; Conn semantics are identical.
	}
	s.mu.Lock()
	if s.closed {
		// Close already ran: it cannot have seen this listener or
		// reactor, so tear them down here.
		s.mu.Unlock()
		ln.Close()
		if r := s.reactor.Load(); r != nil {
			r.shutdown()
		}
		return nil
	}
	s.ln = ln
	s.transport = transport
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Version handshake off the accept loop, so one slow or
		// wrong-protocol dialer cannot stall other accepts.
		go func(c net.Conn) {
			if err := acceptHandshake(c, timeout); err != nil {
				c.Close()
				return
			}
			attach(c)
		}(c)
	}
}

// attachGoroutine runs a handshaken connection on the goroutine
// transport (attach wraps the blocking tcpConn in a blockingConn).
func (s *Server) attachGoroutine(c net.Conn) {
	conn := NewTCPConn(c)
	if _, err := s.Attach(conn); err != nil {
		conn.Close()
	}
}

// Transport reports the transport in effect for TCP sessions: the
// configured one, or the goroutine fallback when the reactor is
// unsupported on this platform. Before ListenAndServe it reports the
// configured transport.
func (s *Server) Transport() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.transport != "" {
		return s.transport
	}
	return s.opts.Transport
}

// Addr returns the TCP listen address, if listening.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// RecoveryStats reports what the opening replay did: records and pages
// replayed, and wall time.
func (s *Server) RecoveryStats() RecoveryStats { return s.recovery }

// replay opens the log at walPath and applies every committed record to
// store and relocs (nil: the store keeps no relocation table) in log
// order, then flushes the store if it applied any. Records are object
// afterimages, so applying them over a store that already holds them
// rewrites the same bytes; relocation records a checkpoint already saved
// into the relocs.db base (logs of older servers hold such) re-apply as
// idempotently. The log is closed on error.
func replay(walPath string, store *Store, relocs *relocTable) (*WAL, RecoveryStats, error) {
	var st RecoveryStats
	pages := make(map[core.PageID]struct{})
	apply := func(rec *walRecord) error {
		if !rec.Commit {
			return nil
		}
		if len(rec.Objs) != len(rec.Images) {
			return fmt.Errorf("live: malformed WAL record for txn %d", rec.Txn)
		}
		for i, o := range rec.Objs {
			if err := cpRecoverMidReplay.Check(); err != nil {
				return err
			}
			if err := store.WriteObj(o, rec.Images[i]); err != nil {
				return err
			}
			pages[o.Page] = struct{}{}
		}
		if len(rec.Relocs) > 0 {
			if relocs == nil {
				return fmt.Errorf("live: WAL holds relocation records but %s is missing", relocFile)
			}
			relocs.applyAll(rec.Relocs)
		}
		st.Records++
		return nil
	}
	wal, err := OpenWAL(walPath, func(rec *walRecord) error {
		start := time.Now()
		err := apply(rec)
		st.DurationNs += time.Since(start).Nanoseconds()
		return err
	})
	if err != nil {
		return nil, st, err
	}
	start := time.Now()
	if st.Records > 0 {
		if err := store.Flush(); err != nil {
			wal.Close()
			return nil, st, err
		}
	}
	st.PagesReplayed = len(pages)
	st.DurationNs += time.Since(start).Nanoseconds()
	return wal, st, nil
}

// stopLocked is the one teardown Close and Crash share: mark the server
// stopped (recording cause, nil for a clean Close), signal the background
// loops, stop accepting, and drop every session. It only signals — the
// caller holds s.mu and may BE a session or event-loop goroutine (an
// injected crash mid-commit) — so it joins nothing; join does. It reports
// false if the server was already stopped.
func (s *Server) stopLocked(cause error) bool {
	if s.closed {
		return false
	}
	s.closed = true
	s.closedFlag.Store(true)
	s.failed = cause
	close(s.stop)
	if s.ln != nil {
		s.ln.Close()
	}
	if r := s.reactor.Load(); r != nil {
		r.stop()
	}
	for _, sess := range s.sessionMap() {
		sess.close()
	}
	empty := make(map[core.ClientID]*session)
	s.sessions.Store(&empty)
	return true
}

// join waits for everything stopLocked signalled: session drivers,
// background loops and the pipe sessions' receiver calls first, then the
// reactor's loops — any of them may be mid-handle, and acked work must land
// before Close tears the files down. Idempotent, so a Close after a crash
// that could not join leaks nothing.
func (s *Server) join() {
	s.wg.Wait()
	s.pipeMu.Lock()
	for s.pipeCalls.Load() > 0 {
		s.pipeIdle.Wait()
	}
	s.pipeMu.Unlock()
	if r := s.reactor.Load(); r != nil {
		r.shutdown()
	}
}

// crash fail-stops the server (s.mu taken here).
func (s *Server) crash(cause error) {
	s.mu.Lock()
	s.crashLocked(cause)
	s.mu.Unlock()
}

// failStop fail-stops the server if err is an injected crash, and returns
// err either way.
func (s *Server) failStop(err error) error {
	if fault.IsCrash(err) {
		s.crash(err)
	}
	return err
}

// crashLocked fail-stops the server as an injected crash dictates: every
// session drops, nothing is flushed, and WAL bytes that were never fsynced
// are discarded (they lived in the dying machine's page cache). The data
// directory is left exactly as a real crash would, ready for recovery by a
// fresh OpenServer. Caller holds s.mu.
func (s *Server) crashLocked(cause error) {
	if s.stopLocked(cause) {
		s.crashFiles(cause)
	}
}

// crashFiles leaves the store and the log as a crash would: unsynced WAL
// bytes are discarded and the store dies without a flush.
func (s *Server) crashFiles(cause error) {
	s.wal.crash()
	s.store.closeRaw()
	// Blackbox last: the dump reads atomics, the trace ring and the heat
	// and span snapshots, never engine state the crash interrupted.
	s.flight.Dump("fail-stop: "+cause.Error(), s.tracer, s.heat, s.spans, s.registry)
}

// Crash simulates fail-stop process death (for tests and the recovery
// fuzzer): connections drop and the in-memory store dies without a flush.
// Idempotent; returns the injected crash that already stopped the server,
// if any.
func (s *Server) Crash() error {
	s.mu.Lock()
	failed := s.failed
	s.crashLocked(errors.New("live: server crashed (simulated)"))
	s.mu.Unlock()
	s.join()
	return failed
}

// Failed returns the injected crash that fail-stopped the server, or nil.
func (s *Server) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Close shuts the server down: sessions are closed, a checkpoint makes
// the store cover the whole log and empties it, and the files are closed.
// An injected crash inside that checkpoint fail-stops the server instead,
// leaving the files as the crash found them.
func (s *Server) Close() error {
	s.mu.Lock()
	stopped := s.stopLocked(nil)
	s.mu.Unlock()
	s.join()
	if !stopped {
		return nil
	}

	err := s.checkpoint(false) // after any Checkpoint call in flight, which join does not wait for
	if fault.IsCrash(err) {
		s.mu.Lock()
		s.failed = err
		s.mu.Unlock()
		s.crashFiles(err)
		return err
	}
	s.store.closeRaw()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
