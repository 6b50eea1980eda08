package live

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// msgKindLabels names the client->server message kinds for metric labels.
// Indexed by core.MsgKind (the client-originated prefix of the enum).
var msgKindLabels = [...]string{
	core.MReadReq:     "read",
	core.MWriteReq:    "write",
	core.MCommitReq:   "commit",
	core.MAbortReq:    "abort",
	core.MCallbackAck: "callback-ack",
	core.MDeescReply:  "deesc-reply",
}

// serverMetrics holds the live server's instrument handles, resolved once
// at startup so the hot paths never touch the registry's map (the record
// path is a few atomic adds).
type serverMetrics struct {
	reqs     [len(msgKindLabels)]*obs.Counter
	handleNs [len(msgKindLabels)]*obs.Histogram

	// Lock waits, measured from the engine's EvBlock to the eventual
	// EvGrant, split by granted granularity — the live analogue of the
	// paper's blocking-cost distinction between page and object locks.
	lockWaitPageNs *obs.Histogram
	lockWaitObjNs  *obs.Histogram

	// Engine-lock width: how long requests wait for the engine lock and
	// how long holders keep it. Hold covers only the engine step,
	// staging, and (for commits) the WAL frame write and installs —
	// store reads and fsyncs show up in wait for other requests if they
	// ever creep back in.
	engineLockWaitNs *obs.Histogram
	engineLockHoldNs *obs.Histogram

	// commitSyncWaitNs is the group-commit durability wait, kept out of
	// handleNs so commit handling latency reflects processing, not fsync
	// scheduling.
	commitSyncWaitNs *obs.Histogram

	callbackFanout *obs.Histogram
	leaseExpiries  *obs.Counter
	outboxDeposes  *obs.Counter

	walAppendNs  *obs.Histogram
	walFsyncNs   *obs.Histogram
	walBytes     *obs.Counter
	walRecords   *obs.Counter
	walSyncs     *obs.Counter
	walGroupSize *obs.Histogram

	checkpoints *obs.Counter
	flushPages  *obs.Counter

	// recoveryPagesReplayed is bumped once per OpenServer from the opening
	// replay's RecoveryStats (with a shared registry it accumulates across
	// restarts, which is the point: restarts are countable events).
	recoveryPagesReplayed *obs.Counter

	// Online reclustering: objects migrated (relocation entries applied by
	// committed migration txns), and redirects served for retired
	// addresses (at the front door, or to requests queued behind the move
	// when it installed).
	reclusterMoves     *obs.Counter
	reclusterRedirects *obs.Counter

	// reactorDeposes counts sessions deposed because their pending write
	// queue exceeded the drain cap (a slow reader under the reactor's
	// per-connection byte-queue analogue of the outbox limit).
	reactorDeposes *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{}
	for k, label := range msgKindLabels {
		m.reqs[k] = reg.Counter(
			`oodb_server_requests_total{kind="`+label+`"}`,
			"client requests handled, by message kind")
		m.handleNs[k] = reg.Histogram(
			`oodb_server_handle_ns{kind="`+label+`"}`,
			"request handling latency, ns, by message kind (commit excludes the group-commit durability wait)")
	}
	m.engineLockWaitNs = reg.Histogram("oodb_live_engine_lock_wait_ns",
		"time spent waiting to acquire the server's engine lock, ns")
	m.engineLockHoldNs = reg.Histogram("oodb_live_engine_lock_hold_ns",
		"time the engine lock was held per acquisition, ns")
	m.commitSyncWaitNs = reg.Histogram("oodb_live_commit_sync_wait_ns",
		"commit durability (group-commit fsync) wait, off-lock, ns")
	m.lockWaitPageNs = reg.Histogram(`oodb_server_lock_wait_ns{granularity="page"}`,
		"time blocked requests waited before a grant, ns, by granted granularity")
	m.lockWaitObjNs = reg.Histogram(`oodb_server_lock_wait_ns{granularity="object"}`, "")
	m.callbackFanout = reg.Histogram("oodb_server_callback_fanout",
		"clients called back per callback round")
	m.leaseExpiries = reg.Counter("oodb_server_lease_expiries_total",
		"sessions disconnected for exceeding the callback deadline (an unanswered callback, or a write to them parked that long)")
	m.outboxDeposes = reg.Counter("oodb_live_outbox_deposes_total",
		"sessions deposed for an overflowing outbox (client stopped reading)")
	m.walAppendNs = reg.Histogram("oodb_wal_append_ns",
		"WAL append latency (frame write; bodies are encoded off-lock), ns")
	m.walFsyncNs = reg.Histogram("oodb_wal_fsync_ns",
		"WAL fsync latency on commit, ns")
	m.walBytes = reg.Counter("oodb_wal_appended_bytes_total",
		"bytes appended to the WAL")
	m.walRecords = reg.Counter("oodb_wal_records_total",
		"commit records appended to the WAL")
	m.walSyncs = reg.Counter("oodb_wal_syncs_total",
		"WAL fsyncs issued (group commit: one sync can cover many records)")
	m.walGroupSize = reg.Histogram("oodb_live_wal_group_size",
		"commit records made durable per WAL fsync (group-commit batch size)")
	m.checkpoints = reg.Counter("oodb_checkpoints_total", "checkpoints completed")
	m.flushPages = reg.Counter("oodb_store_flush_pages_total",
		"pages written by store flushes")
	m.recoveryPagesReplayed = reg.Counter("oodb_live_recovery_pages_replayed_total",
		"distinct pages receiving at least one replayed WAL image at recovery")
	m.reclusterMoves = reg.Counter("oodb_recluster_moves_total",
		"objects migrated to new placements by committed reclustering txns")
	m.reclusterRedirects = reg.Counter("oodb_recluster_redirects_total",
		"requests for retired addresses answered with an MRelocated redirect")
	m.reactorDeposes = reg.Counter("oodb_live_reactor_deposes_total",
		"sessions deposed for a pending write queue over the drain cap (slow reader)")
	return m
}

// onEngineTrace receives every protocol event from the engine, under the
// engine lock. It feeds the tracer and turns EvBlock->EvGrant pairs into
// lock-wait latency observations, keyed by the granted granularity.
func (s *Server) onEngineTrace(kind obs.EventKind, txn core.TxnID, client core.ClientID, obj core.ObjID, extra int64) {
	switch kind {
	case obs.EvLockReq:
		// Heat sample: every read/write request that reached the engine,
		// by object. Disabled, this is one atomic load. The reclustering
		// planner's own traffic is excluded — its migrations touching a
		// page must not feed the very evidence that plans migrations.
		if !s.eng.IsSystem(client) {
			s.heat.RecordAccess(int32(client), int32(obj.Page), int32(obj.Slot), extra == 1)
		}
	case obs.EvBlock:
		if !s.eng.IsSystem(client) {
			s.heat.RecordBlock(int32(obj.Page))
		}
		if _, ok := s.blockStart[txn]; !ok {
			s.blockStart[txn] = time.Now()
		}
	case obs.EvGrant:
		if start, ok := s.blockStart[txn]; ok {
			delete(s.blockStart, txn)
			wait := time.Since(start).Nanoseconds()
			if core.GrantLevel(extra) == core.GrantPage {
				s.metrics.lockWaitPageNs.Observe(wait)
			} else {
				s.metrics.lockWaitObjNs.Observe(wait)
			}
		}
	case obs.EvRound:
		s.metrics.callbackFanout.Observe(extra)
	case obs.EvRoundCancel:
		// The round died with this client's answer outstanding; retire
		// any callback deadline armed for it so the watchdog cannot
		// depose a client that owes nothing.
		if sess := s.sessionOf(client); sess != nil {
			sess.clearCB(extra)
		}
	case obs.EvCommit, obs.EvAbort, obs.EvDeadlock:
		delete(s.blockStart, txn)
	}
	s.tracer.Emit(kind, int64(txn), int32(client), int32(obj.Page), int32(obj.Slot), extra)
}

// observeStage records one commit-stage latency into the stage histograms
// (with the txn as bucket exemplar) and, when tracing, into the per-txn
// trace (Slot carries the stage index, Extra the duration in ns) — so a
// p99 bucket's exemplar links to /trace?txn= and the trace shows where
// that transaction's time went.
func (s *Server) observeStage(st obs.CommitStage, txn core.TxnID, client core.ClientID, d time.Duration) {
	ns := d.Nanoseconds()
	s.spans.Observe(st, ns, int64(txn))
	s.tracer.Emit(obs.EvCommitStage, int64(txn), int32(client), 0, int32(st), ns)
}

// clientMetrics holds a live client's instrument handles. A nil
// *clientMetrics (no registry configured) disables collection; every
// method nil-checks.
type clientMetrics struct {
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	fetches     *obs.Counter
	commits     *obs.Counter
	rttNs       *obs.Histogram
}

// newClientMetrics resolves the client-side instruments. The cache
// hit/miss counters carry the granularity the protocol caches at (objects
// under OS, pages otherwise), mirroring the paper's client buffer units.
func newClientMetrics(reg *obs.Registry, proto core.Protocol) *clientMetrics {
	if reg == nil {
		return nil
	}
	unit := "page"
	if proto == core.OS {
		unit = "object"
	}
	return &clientMetrics{
		cacheHits: reg.Counter(`oodb_client_cache_hits_total{kind="`+unit+`"}`,
			"reads/writes satisfied from the client cache, by cached unit"),
		cacheMisses: reg.Counter(`oodb_client_cache_misses_total{kind="`+unit+`"}`,
			"reads/writes that needed a server round trip, by cached unit"),
		fetches: reg.Counter("oodb_client_fetches_total",
			"data/permission fetches sent to the server"),
		commits: reg.Counter("oodb_client_commits_total", "transactions committed"),
		rttNs: reg.Histogram("oodb_client_request_rtt_ns",
			"request round-trip time incl. blocking at the server, ns"),
	}
}

func (m *clientMetrics) hit() {
	if m != nil {
		m.cacheHits.Inc()
	}
}

func (m *clientMetrics) miss() {
	if m != nil {
		m.cacheMisses.Inc()
		m.fetches.Inc()
	}
}

func (m *clientMetrics) rtt(d time.Duration) {
	if m != nil {
		m.rttNs.Observe(d.Nanoseconds())
	}
}

func (m *clientMetrics) commit() {
	if m != nil {
		m.commits.Inc()
	}
}
