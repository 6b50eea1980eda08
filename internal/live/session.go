package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// session is one attached client, and the one session state machine:
// the connection's driver (an event loop, or blockingConn's goroutine
// pair) delivers inbound messages to Server.deliver and runs pump when
// kicked; nothing else reads or writes the connection. Outgoing messages
// are staged on the outbox while the owning shard's lock is held (fixing
// their order to match the engine's processing order) and shipped by
// pump; per-session FIFO delivery is a correctness requirement of
// callback locking (a callback must never overtake the data reply it
// concerns). All messages about one page are produced under that page's
// shard lock, so per-page wire order still matches engine order.
//
// A staged entry may be reserved before its payload exists: data grants
// are pushed under the shard lock with ready=false, and the payload is
// attached — and the entry marked ready — after the lock is released
// (see Server.stage / Server.attachPayloads). pump ships only the
// maximal ready prefix, so reserved slots preserve FIFO order without
// holding the engine lock across store reads. On a connection that
// serialises its messages (wire) a data grant needs no reservation: it is
// staged ready and pump copies its payload out of the store as it encodes
// the frame.
type session struct {
	id   core.ClientID
	conn asyncConn

	// wire is the blocking TCP connection under conn, which serialises
	// what it is given, and store the payload source for the frames pump
	// encodes for it; both nil when messages are passed by reference
	// (pipes) or the transport queues frames itself (the reactor).
	wire  *tcpConn
	store objectStore

	// idle is set under a blocking driver (over a connection that can
	// tell): its receiver ships the output of the request it just handled
	// itself (flushOwn), and idle is its probe for "no further request is
	// waiting".
	idle func() bool

	// cbDue maps an outstanding callback round id to its answer deadline.
	// cbMu guards the map itself (rounds from different shards share it,
	// and the watchdog scans it); arm-vs-cancel ordering for any one
	// round is already serialized by that round's shard lock.
	cbMu  sync.Mutex
	cbDue map[int64]time.Time

	// txnShards (write-grant footprint) and txnLastReq (shard of the most
	// recent read/write request) route commits and aborts to the shards
	// holding the transaction's state. Touched only inside receiver
	// callbacks, which the driver never runs concurrently, so unguarded.
	txnShards  map[core.TxnID]uint64
	txnLastReq map[core.TxnID]uint64

	mu      sync.Mutex
	outbox  []*outEntry
	own     int  // quiet entries pushed since the last flushOwn
	pumping bool // a pump is mid-batch; keeps drains FIFO
	closed  bool
	dropped bool // outbox overflowed; the server is deposing this session
}

// outEntry is one staged outbound message. msg.Data and ready are written
// under session.mu (attachPayloads) before pump reads them (also under
// session.mu), so the hand-off is properly fenced.
type outEntry struct {
	msg   core.Msg
	ready bool
	// fromStore marks a data grant whose Data pump reads out of the store
	// while encoding (wire sessions only).
	fromStore bool
	// quiet marks output of the request the session's own receiver is
	// handling: nobody is kicked for it, the receiver ships it when the
	// handler returns (flushOwn).
	quiet bool
}

// outEntryPool recycles entries of wire sessions, whose messages are
// encoded and done with; a pipe hands &e.msg to its peer for good.
var outEntryPool = sync.Pool{New: func() any { return new(outEntry) }}

func newSession(id core.ClientID, conn asyncConn) *session {
	return &session{id: id, conn: conn, cbDue: make(map[int64]time.Time)}
}

// armCB sets the answer deadline for callback round id.
func (s *session) armCB(id int64, due time.Time) {
	s.cbMu.Lock()
	s.cbDue[id] = due
	s.cbMu.Unlock()
}

// clearCB retires the deadline for round id, if armed.
func (s *session) clearCB(id int64) {
	s.cbMu.Lock()
	delete(s.cbDue, id)
	s.cbMu.Unlock()
}

// overdue reports whether any armed callback deadline has passed.
func (s *session) overdue(now time.Time) bool {
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	for _, due := range s.cbDue {
		if now.After(due) {
			return true
		}
	}
	return false
}

// push stages one entry. It reports overflow the first time the outbox
// exceeds limit (limit <= 0: unbounded) — the caller must then depose
// the session, because an outbox this deep means the client stopped
// draining its connection and every staged byte is dead weight.
func (s *session) push(e *outEntry, limit int) (overflow bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.outbox = append(s.outbox, e)
	if e.quiet {
		s.own++
	}
	if limit > 0 && len(s.outbox) > limit && !s.dropped {
		s.dropped = true
		overflow = true
	}
	kick := e.ready && !e.quiet
	s.mu.Unlock()
	if kick {
		s.conn.Kick() // non-blocking, so callers may hold shard locks
	}
	return overflow
}

// enqueue appends one ready (payload-complete) message.
func (s *session) enqueue(m core.Msg) {
	e := outEntryPool.Get().(*outEntry)
	*e = outEntry{msg: m, ready: true}
	s.push(e, 0)
}

// markReady publishes e's payload to pump and schedules it.
func (s *session) markReady(e *outEntry) {
	s.mu.Lock()
	e.ready = true
	kick := !e.quiet
	s.mu.Unlock()
	if kick {
		s.conn.Kick()
	}
}

// flushOwn ships what the request just handled staged for its own session
// (quiet entries). It runs on a blocking driver's receiver, which pumps
// in person — sparing the reply a goroutine hand-off — only when it is
// certain to be back in Recv promptly: nothing else is queued or being
// pumped, and no further request is waiting (idle). Otherwise the pump
// goroutine takes it, and a receiver that keeps receiving is what lets a
// session whose peer stopped reading run into its outbox limit.
func (s *session) flushOwn() {
	s.mu.Lock()
	own := s.own
	s.own = 0
	inline := own > 0 && own == len(s.outbox) && !s.pumping
	s.mu.Unlock()
	switch {
	case inline && s.idle():
		s.pump()
	case own > 0:
		s.conn.Kick()
	}
}

// close retires the outbox and tears the connection down, which makes
// the driver deliver its terminal callback and stop.
func (s *session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.conn.Close()
}

// pump is the one function that drains a session outbox: it ships the
// maximal ready prefix, in order, and returns. It stops at a head entry
// still awaiting its payload — later ready entries must not overtake it
// (FIFO). The connection's driver calls it whenever Kick signaled staged
// output. The pumping flag admits one drainer at a time, so FIFO holds
// even if a stray kick ever raced the driver; entries that become ready
// mid-batch are picked up by the re-check (their Kick may find pumping
// set, but this drainer clears the flag only after looking again).
func (s *session) pump() {
	s.mu.Lock()
	for {
		if s.pumping || s.closed {
			s.mu.Unlock()
			return
		}
		n := 0
		for n < len(s.outbox) && s.outbox[n].ready {
			n++
		}
		if n == 0 {
			s.mu.Unlock()
			return
		}
		whole := s.outbox
		batch := whole[:n:n]
		s.outbox = whole[n:]
		s.pumping = true
		s.mu.Unlock()
		err := s.ship(batch)
		s.mu.Lock()
		s.pumping = false
		if len(s.outbox) == 0 {
			// Drained, so nothing was appended behind the batch and this is
			// still whole's array: rewind to its front instead of sliding
			// off its end and regrowing it every few messages.
			s.outbox = whole[:0]
		}
		if err != nil {
			s.mu.Unlock()
			// Deposed or failed, or a frame that cannot be encoded: either
			// way the stream ends here and the close path detaches us.
			s.conn.Close()
			return
		}
	}
}

// ship sends one batch in order. A wire session's batch is encoded into
// one pooled buffer — data grants straight from the store — and written
// in as few socket writes as encBufKeep allows.
func (s *session) ship(batch []*outEntry) error {
	if s.wire == nil {
		for _, e := range batch {
			if err := s.conn.Send(&e.msg); err != nil {
				return err
			}
		}
		if f, ok := s.conn.(flusher); ok {
			// Batch boundary: push the queued frames out in one write. A
			// failed flush poisons the connection; the next Send or the
			// receiver reports it.
			f.Flush()
		}
		return nil
	}
	bp := encBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	for _, e := range batch {
		var payload objectStore
		if e.fromStore {
			payload = s.store
		}
		if buf, err = appendMsgFrame(buf, &e.msg, payload); err != nil {
			break
		}
		outEntryPool.Put(e)
		if len(buf) >= encBufKeep {
			if err = s.wire.writeFrames(buf); err != nil {
				break
			}
			buf = buf[:0]
		}
	}
	if err == nil && len(buf) > 0 {
		err = s.wire.writeFrames(buf)
	}
	putEncBuf(bp, buf)
	return err
}

// Attach registers a new client session over conn and starts serving it.
// It returns the client id assigned to the session.
func (s *Server) Attach(conn Conn) (core.ClientID, error) {
	return s.attach(conn, false)
}

// attachInternal registers the reclustering planner's session: its hello
// advertises the PHYSICAL page count (the spare region included, since
// migrations write there directly), it bypasses the relocation front
// door, and every shard engine marks it a system client so its commits
// and aborts stay out of user-facing stats. One at a time.
func (s *Server) attachInternal(conn Conn) (core.ClientID, error) {
	return s.attach(conn, true)
}

func (s *Server) attach(conn Conn, internal bool) (core.ClientID, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("live: server closed")
	}
	s.nextID++
	id := s.nextID
	ac, ok := conn.(asyncConn)
	if !ok {
		ac = newBlockingConn(conn, &s.wg)
	}
	sess := newSession(id, ac)
	if c, canTell := conn.(interface{ idle() bool }); canTell && !ok {
		sess.idle = c.idle
	}
	if t, ok := conn.(*tcpConn); ok {
		sess.wire, sess.store = t, s.store
	}
	// Handlers are installed before the session is published and before
	// the driver starts, so no callback can beat them.
	ac.SetHandlers(func(m *core.Msg, err error) { s.deliver(sess, m, err) }, sess.pump)
	// Held across Start: a driver's own wg.Add then never races the
	// Wait of a Close that slipped in after this unlock.
	s.wg.Add(1)
	defer s.wg.Done()
	old := *s.sessions.Load()
	next := make(map[core.ClientID]*session, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = sess
	s.sessions.Store(&next)
	s.wal.SetDemand(len(next))
	s.mu.Unlock()

	pages, opp, objSize := s.Geometry()
	if internal {
		pages = s.store.NumPages()
		for _, sh := range s.shards {
			held := s.lockShard(sh)
			sh.eng.SetSystemClient(id, true)
			s.unlockShard(sh, held)
		}
		s.internalID.Store(int64(id))
	}

	// Handshake: tell the client its id, the geometry, and the protocol.
	hello := &core.Msg{Kind: core.MHello, To: id, HelloID: id,
		HelloPages: int32(pages), HelloObjsPP: int32(opp), HelloObjSize: int32(objSize),
		HelloProto: s.opts.Proto, HelloVariable: s.opts.VariableObjects}
	sess.enqueue(*hello) // first message on the session, ahead of any grant
	ac.Start()
	return id, nil
}

// detach removes a session and sweeps every shard for its protocol
// state. The session leaves the map before the sweep, so its receiver's
// alive checks (under shard locks) fail from then on — no message it
// already received can recreate engine state after the sweep passed its
// shard (ghost resurrection).
func (s *Server) detach(id core.ClientID) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	old := *s.sessions.Load()
	sess, ok := old[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	next := make(map[core.ClientID]*session, len(old)-1)
	for k, v := range old {
		if k != id {
			next[k] = v
		}
	}
	s.sessions.Store(&next)
	s.wal.SetDemand(len(next))
	s.mu.Unlock()

	sess.close()

	// Clean up the ghost's protocol state on every shard; stage any
	// grants this unblocks. The shared seen set counts a transaction
	// holding locks on several shards as ONE abort.
	seen := make(map[core.TxnID]bool)
	var staged []stagedPayload
	var overflow []core.ClientID
	for _, sh := range s.shards {
		held := s.lockShard(sh)
		st, ov := s.stage(nil, sh.eng.DisconnectDedup(id, seen))
		s.unlockShard(sh, held)
		staged = append(staged, st...)
		overflow = append(overflow, ov...)
	}
	s.bsMu.Lock()
	for t := range seen {
		delete(s.blockStart, t)
	}
	s.bsMu.Unlock()
	s.attachPayloads(staged)
	for _, oid := range overflow {
		s.detach(oid) // bounded: each recursion removes a session
	}
}

// deliver is every session's receiver callback, whichever driver calls
// it: one inbound message through the engine, or the terminal error that
// retires the session. A handling-path panic writes the flight-recorder
// blackbox before the process goes down; poisoning closedFlag makes the
// registry's shard-summing gauges short-circuit, so the dump cannot
// deadlock on a lock the panicking goroutine may hold.
func (s *Server) deliver(sess *session, m *core.Msg, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.closedFlag.Store(true)
			s.flight.Dump(fmt.Sprintf("panic: %v", r), s.tracer, s.heat, s.spans, s.registry)
			panic(r)
		}
	}()
	if err != nil {
		s.detach(sess.id)
		return
	}
	m.From = sess.id
	s.handle(sess, m, time.Now())
	if sess.idle != nil {
		sess.flushOwn()
	}
}

// stagedPayload is a reserved outbox slot awaiting its payload.
type stagedPayload struct {
	sess *session
	e    *outEntry
}

// stage reserves outbox slots for the engine's outputs, in engine order
// (the wire order), under the emitting shard's lock. Messages that need
// no store payload are ready immediately, and so are data grants to wire
// sessions, whose payload pump reads as it encodes them; other data grants
// are staged unready and returned for attachPayloads to fill outside the
// lock. self is the session whose request produced outs, when its own
// receiver is the caller: a blocking driver's receiver ships its own
// output itself (flushOwn). stage also arms callback deadlines and reports
// sessions whose outbox overflowed (the caller must detach those after
// releasing the lock).
func (s *Server) stage(self *session, outs []core.Msg) (staged []stagedPayload, overflow []core.ClientID) {
	sessions := s.sessionMap()
	for i := range outs {
		om := &outs[i]
		sess := sessions[om.To]
		if sess == nil {
			continue // client departed; detach cleans its state up
		}
		e := outEntryPool.Get().(*outEntry)
		*e = outEntry{msg: *om, ready: true, quiet: sess == self && sess.idle != nil}
		switch om.Kind {
		case core.MPageData, core.MObjData:
			if om.Kind == core.MPageData && s.relocs != nil {
				// A granted page may carry retired (moved-away-from) slots:
				// mark them unavailable so the client's cached copy routes
				// their reads back to the server, which redirects. Staged
				// under the emitting shard's lock, so the marks match the
				// relocation state the grant was decided under.
				if ret := s.relocs.view().retiredSlots(om.Page); len(ret) > 0 {
					e.msg.Unavail = append(append([]uint16(nil), e.msg.Unavail...), ret...)
				}
			}
			if sess.wire != nil {
				e.fromStore = true
			} else {
				e.ready = false
				staged = append(staged, stagedPayload{sess, e})
			}
		case core.MCallback:
			if s.opts.CallbackTimeout > 0 {
				sess.armCB(om.Req, time.Now().Add(s.opts.CallbackTimeout))
			}
		}
		if sess.push(e, s.opts.OutboxLimit) {
			s.metrics.outboxDeposes.Inc()
			overflow = append(overflow, om.To)
		}
	}
	return staged, overflow
}

// attachPayloads reads the store payloads for slots stage reserved and
// publishes them to the session pumps. It runs WITHOUT any shard
// lock; the store's page latches (shared here, exclusive in commit
// installs) keep each copy untorn. A wire session's pump reads its
// payloads under the same latches and the same argument, only later
// still: as it writes the frame.
//
// The payload still matches the lock state at grant time: a conflicting
// writer can install new bytes for a granted object only after calling
// back every registered copy — and the copy was registered under the
// page's shard lock when this grant was staged. The recipient answers
// that callback only after its client-side receive loop has consumed
// this very message, which the FIFO outbox orders behind nothing that
// hasn't been sent — so the install strictly follows this read. Slots
// the grant marked Unavail are the one exception: their bytes may move
// underneath us, but clients never read Unavail slots from a granted
// page.
func (s *Server) attachPayloads(staged []stagedPayload) {
	for _, sp := range staged {
		var data []byte
		var err error
		if sp.e.msg.Kind == core.MPageData {
			data, err = s.store.ReadPage(sp.e.msg.Page)
		} else {
			data, err = s.store.ReadObj(sp.e.msg.Obj)
		}
		if err != nil {
			if s.closedFlag.Load() {
				return // crashed underneath us; sessions are gone anyway
			}
			panic(fmt.Sprintf("live: payload read failed: %v", err))
		}
		sp.e.msg.Data = data
		sp.sess.markReady(sp.e)
	}
}
