package live

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// cpReclusterMidMove crashes a migration commit after its WAL append
// but before the installs and the relocation-table publish: the log
// holds a relocation record (durable or not, depending on the sync
// race) that relocs.db does not — recovery must reconstruct the table
// from base + log either way.
var cpReclusterMidMove = fault.Register("recluster.mid-move")

// engineHold is what lockEngine measured, for unlockEngine to record.
type engineHold struct {
	acquired time.Time
	waitNs   int64
}

// lockEngine acquires the engine lock and returns when it got it and how
// long the caller waited. unlockEngine records the wait and the hold time
// once the lock is released: observing them is no part of the critical
// section they measure. Together they make its width observable: hold
// should cover only the engine step and staging (and, for a commit, the
// WAL frame write and installs), never store flushes or fsyncs outside a
// checkpoint. Since a hold is that short, a waiter spins on the lock for
// up to spinBound before it parks (DESIGN §13).
func (s *Server) lockEngine() engineHold {
	t0 := time.Now()
	if !s.spin.spin(s.engMu.TryLock) {
		s.engMu.Lock()
	}
	t1 := time.Now()
	return engineHold{acquired: t1, waitNs: t1.Sub(t0).Nanoseconds()}
}

// unlockEngine releases the lock lockEngine took, then records the wait
// and the hold, from acquisition to release.
func (s *Server) unlockEngine(held engineHold) {
	h := time.Since(held.acquired).Nanoseconds()
	s.engMu.Unlock()
	s.metrics.engineLockWaitNs.Observe(held.waitNs)
	s.metrics.engineLockHoldNs.Observe(h)
}

// handle runs one message through the engine and dispatches the
// responses. Everything that does not need engine state — WAL body
// encoding, the commit fsync wait, store payload reads — happens outside
// the engine lock. recvAt is when the session's driver delivered the
// message: the handle span and the commit-stage queue span start there.
func (s *Server) handle(sess *session, m *core.Msg, recvAt time.Time) {
	// The half of the engine's rule that needs no lock (core.ServerEngine.Fits).
	if !s.eng.Fits(m, s.store.ObjSize()) {
		s.detach(sess.id)
		return
	}
	s.metrics.reqs[m.Kind].Inc()
	var syncWait time.Duration
	defer func() {
		// The group-commit durability wait is fsync scheduling, not
		// processing; it is recorded separately (commitSyncWaitNs) so
		// handle latency stays honest.
		s.metrics.handleNs[m.Kind].Observe((time.Since(recvAt) - syncWait).Nanoseconds())
	}()

	// Encode the commit's WAL frame before taking any lock: the record
	// body is a pure function of the request, and encoding is the
	// expensive half of an append.
	var rec *walRecord
	var frame []byte
	var queueDur, encodeDur time.Duration
	if m.Kind == core.MCommitReq && len(m.Updates) > 0 {
		encStart := time.Now()
		queueDur = encStart.Sub(recvAt)
		rec = &walRecord{Txn: m.Txn, Client: m.From, Commit: true, Relocs: m.Relocs}
		view := s.relocs.view()
		for _, o := range sortedUpdateKeys(m.Updates) {
			img := m.Updates[o]
			if to, ok := view.lookup(o); ok {
				// A blind write to a retired address (a PS page grant taken
				// before the move allows writes with no further request):
				// install at the object's current placement, where readers
				// are redirected. The engine's finish step still sees the
				// original address — that is where the locks live.
				o = to
			}
			rec.Objs = append(rec.Objs, o)
			rec.Images = append(rec.Images, img)
		}
		frame = encodeWALFrame(rec)
		encodeDur = time.Since(encStart)
	}

	if m.Kind == core.MCommitReq || m.Kind == core.MAbortReq {
		syncWait = s.finishTxnMsg(sess, m, rec, frame, queueDur, encodeDur)
		return
	}

	s.engineStep(sess, m, false)
}

// engineStep runs one message through the engine under its lock: the
// guarded entry (enterEngine), engine dispatch, staging, callback
// deadlines; then, off-lock, other pipe sessions' output ships and
// overflowed sessions are deposed (settle).
func (s *Server) engineStep(sess *session, m *core.Msg, admitted bool) {
	held, ok := s.enterEngine(sess, m, admitted)
	if !ok {
		return
	}

	// Relocation front door: a user read/write of a retired address
	// answers with a redirect to its current placement. The check runs
	// under the engine lock, which a migration commit holds while it
	// publishes its relocations (see appendAndInstall). The planner's own
	// session bypasses the door (it addresses spare slots directly), and
	// disabled reclustering costs one nil check.
	var outs []core.Msg
	if s.relocs != nil && (m.Kind == core.MReadReq || m.Kind == core.MWriteReq) &&
		!s.eng.IsSystem(m.From) {
		if to, ok := s.relocs.view().lookup(m.Obj); ok {
			s.metrics.reclusterRedirects.Inc()
			outs = []core.Msg{relocated(m, to)}
		}
	}
	if outs == nil {
		outs = s.eng.Handle(m)
	}
	var buf [4]*session
	after := s.stage(sess, outs, buf[:0])

	// Callback-deadline bookkeeping, after the engine step: any ack
	// proves the client is alive, and a busy reply defers the real
	// answer to the transaction's end — but only while its round is
	// still live. A busy ack racing a round cancellation (victim
	// aborted, requester disconnected) must not arm a lease the client
	// can never discharge.
	if m.Kind == core.MCallbackAck && s.opts.CallbackTimeout > 0 {
		sess.clearCB(m.Req)
		if m.Busy && s.eng.RoundLive(m.Req) {
			sess.armCB(m.Req, time.Now().Add(s.opts.CallbackTimeout))
		}
	}

	s.unlockEngine(held)
	s.settle(after)
}

// enterEngine takes the engine lock for sess's message m. It reports
// false, with the lock released, when the session was detached while m was
// in flight (its disconnect sweep serializes on this lock, so processing a
// straggler now would recreate engine state nothing will ever clean up),
// or when the engine refuses m (unless admitted says an earlier entry took
// it), in which case the session is closed before m reaches the engine or
// the log.
func (s *Server) enterEngine(sess *session, m *core.Msg, admitted bool) (engineHold, bool) {
	held := s.lockEngine()
	if s.sessionOf(sess.id) != sess {
		s.unlockEngine(held)
		return held, false
	}
	if !admitted && !s.admits(m) {
		s.unlockEngine(held)
		s.detach(sess.id)
		return held, false
	}
	return held, true
}

// admits reports whether the engine takes m (core.ServerEngine.Admit) and,
// if a user session's request or commit names an object on the spare
// region, the relocation table has given it out, as a placement or a
// retired address, which redirects; the rest is the planner's to fill.
// Under the engine lock, which every publish holds.
func (s *Server) admits(m *core.Msg) bool {
	ok := s.eng.Admit(m)
	if s.relocs == nil || s.eng.IsSystem(m.From) || m.Kind > core.MCommitReq {
		return ok
	}
	given := s.relocs.view().given
	ok = ok && (int(m.Obj.Page) < s.userPages || given[m.Obj])
	for _, o := range m.Objs {
		ok = ok && (int(o.Page) < s.userPages || given[o])
	}
	for o := range m.Updates {
		ok = ok && (int(o.Page) < s.userPages || given[o])
	}
	return ok
}

// finishTxnMsg handles MCommitReq/MAbortReq: make the commit durable,
// then run the finish step.
//
// Durability and ordering:
//
//   - acked => durable: the engine only produces MCommitAck in the
//     finish step, after WaitDurable returns, and a fail-stop during the
//     sync kills the server before any ack escapes. A failed or torn
//     append poisons the WAL (see appendFrame), so no later append can
//     pave over a tear and get acknowledged ahead of recovery's
//     stopping point.
//   - the append + installs happen under the engine lock, with the
//     transaction's engine write locks still held. Two commits racing
//     on the same object are therefore serialized: the second cannot
//     append/install until the first's engine release — which happens
//     after the first's install — so WAL order matches install order
//     per object.
//   - messages processed during our fsync window see the new store
//     bytes but the OLD lock state — our updated objects stay
//     write-locked (so unreadable/unwritable) until the finish step
//     runs after the sync.
//   - a reader that does observe committed-but-unacked bytes (other
//     objects on an updated page) can never commit "ahead" of us: the
//     WAL is sequential and synced is a prefix offset, so its record
//     durable implies ours durable.
//   - Checkpoint holds the engine lock from its log force to its
//     truncation, so its flush-then-truncate cannot interleave with an
//     append/install pair: a WAL record is only ever truncated after a
//     store flush that covers its installs.
//
// It returns the group-commit durability wait so handle can keep the
// commit's handleNs honest (processing time, not fsync scheduling).
func (s *Server) finishTxnMsg(sess *session, m *core.Msg, rec *walRecord, frame []byte, queueDur, encodeDur time.Duration) (syncWait time.Duration) {
	if frame != nil {
		s.observeStage(obs.StageQueue, m.Txn, m.From, queueDur)
		s.observeStage(obs.StageEncode, m.Txn, m.From, encodeDur)
		ticket, ok := s.appendAndInstall(sess, m, rec, frame)
		if !ok {
			return
		}
		syncStart := time.Now()
		err := s.wal.WaitDurable(ticket)
		syncWait = time.Since(syncStart)
		s.metrics.commitSyncWaitNs.Observe(syncWait.Nanoseconds())
		s.observeStage(obs.StageSyncWait, m.Txn, m.From, syncWait)
		if err != nil {
			if fault.IsCrash(err) || errors.Is(err, errWALCrashed) {
				// Injected fail-stop: die before acking the undurable
				// commit; the client sees its connection drop instead.
				s.crash(err)
				return
			}
			panic(fmt.Sprintf("live: WAL sync failed: %v", err))
		}
		if s.closedFlag.Load() {
			// A concurrent crash (or shutdown) won the race: the sessions
			// are gone and no ack may escape.
			return
		}
	}

	ackStart := time.Now()
	s.engineStep(sess, m, frame != nil)
	if frame != nil {
		s.observeStage(obs.StageAck, m.Txn, m.From, time.Since(ackStart))
	}
	return
}

// appendAndInstall makes one commit's WAL append and store installs
// atomic with respect to the engine and to checkpoints: after the guarded
// entry (enterEngine), the frame write and object installs happen under
// the engine lock. ok=false means the commit was dropped (session
// detached, or detached because the engine must not see m — nothing was
// logged or installed) or the server crashed underneath it.
//
// A migration's commit publishes its relocations here too, and this is
// what fences the move. The migration has held the write lock on every
// source since it rewrote the source in place, so a user request for a
// source was either answered before that (its lock or cached copy was
// waited for or called back), or is queued behind the migration's lock or
// callback round now — in the engine, where the deadlock detector sees it
// — or reaches the front door after this publish and is redirected there.
// The queued ones are taken out of the engine and redirected here, under
// the engine lock and before the finish step releases the migration's
// locks, so no user request for a moved address is granted after the move.
func (s *Server) appendAndInstall(sess *session, m *core.Msg, rec *walRecord, frame []byte) (ticket int64, ok bool) {
	lockStart := time.Now()
	held, ok := s.enterEngine(sess, m, false)
	if !ok {
		return 0, false
	}
	locked := time.Now()
	s.observeStage(obs.StageLockWait, rec.Txn, rec.Client, locked.Sub(lockStart))
	ticket, after, err := s.installLocked(rec, frame, locked)
	s.unlockEngine(held)
	switch {
	case err == nil:
		s.settle(after)
		return ticket, true
	case fault.IsCrash(err) || errors.Is(err, errWALCrashed):
		s.crash(err)
	case !s.closedFlag.Load():
		panic(fmt.Sprintf("live: commit append or install failed: %v", err))
	}
	// else a concurrent commit's injected crash closed the files under us;
	// the server is already fail-stopped.
	return 0, false
}

// installLocked is appendAndInstall's body under the engine lock: the WAL
// frame write, the store installs, and a migration's relocations. It
// returns the sessions the redirects it staged left for settle.
func (s *Server) installLocked(rec *walRecord, frame []byte, locked time.Time) (ticket int64, after []*session, err error) {
	if ticket, err = s.wal.appendFrame(frame); err != nil {
		return 0, nil, err
	}
	appended := time.Now()
	s.observeStage(obs.StageAppend, rec.Txn, rec.Client, appended.Sub(locked))
	if len(rec.Relocs) > 0 {
		if err := cpReclusterMidMove.Check(); err != nil {
			return 0, nil, err
		}
	}
	for i, o := range rec.Objs {
		if err := s.store.WriteObj(o, rec.Images[i]); err != nil {
			return 0, nil, err
		}
	}
	if len(rec.Relocs) > 0 {
		// A checkpoint's relocs.db snapshot holds the engine lock too, so
		// the table never runs ahead of the log.
		s.relocs.applyAll(rec.Relocs)
		for _, r := range rec.Relocs {
			for _, q := range s.eng.TakeQueued(r.From) {
				s.metrics.reclusterRedirects.Inc()
				after = s.stage(nil, []core.Msg{relocated(&q, r.To)}, after)
				delete(s.blockStart, q.Txn)
			}
		}
		s.metrics.reclusterMoves.Add(int64(len(rec.Relocs)))
	}
	s.observeStage(obs.StageInstall, rec.Txn, rec.Client, time.Since(appended))
	return ticket, after, nil
}

func sortedUpdateKeys(m map[core.ObjID][]byte) []core.ObjID {
	keys := make([]core.ObjID, 0, len(m))
	for o := range m {
		keys = append(keys, o)
	}
	// slices.SortFunc, not sort.Slice: the latter allocates a reflection
	// swapper on every commit.
	slices.SortFunc(keys, func(a, b core.ObjID) int {
		if c := cmp.Compare(a.Page, b.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.Slot, b.Slot)
	})
	return keys
}
