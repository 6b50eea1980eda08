package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// session is one attached client, and the one session state machine:
// the connection's driver (an event loop, blockingConn's goroutine pair, or
// for a pipe whoever sends) delivers inbound messages to Server.deliver, and
// pump ships the outbox — when the driver is kicked, or, on a pipe, by
// whoever staged the output (Server.settle); nothing else reads or writes
// the connection. Outgoing messages are staged on the outbox while the
// engine lock is held (fixing their order to match the engine's
// processing order) and shipped by pump; per-session FIFO delivery is a
// correctness requirement of callback locking (a callback must never
// overtake the data reply it concerns).
//
// Every staged entry is complete as staged. A data grant carries only its
// page or object id; ship reads the payload out of the store as the grant
// leaves, so the engine lock is never held across a store read.
type session struct {
	id   core.ClientID
	conn asyncConn

	// How a batch leaves is decided by what the connection is (attach):
	// wire is a connection that serialises its messages (tcpConn, rconn),
	// send the Send of one that hands the very Msg to the other end, lent
	// when that end gives it back on return (chanConn.send). Exactly one is
	// set. store is where ship reads grant payloads from, payloadBuf where a
	// by-reference payload goes: into a buffer the other end of a pipe
	// recycled, or a fresh one.
	wire       frameSink
	send       func(m *core.Msg) (lent bool, err error)
	store      *Store
	payloadBuf func(n int) []byte

	// cbDue maps an outstanding callback round id to its answer deadline.
	// cbMu guards the map itself (the watchdog scans it off the engine
	// lock); arm-vs-cancel ordering for any one round is already
	// serialized by the engine lock.
	cbMu  sync.Mutex
	cbDue map[int64]time.Time

	mu      sync.Mutex
	outbox  []*core.Msg
	own     int    // quiet entries pushed since the last flushOwn
	pumping bool   // a pump is inside ship; keeps drains FIFO
	ships   uint64 // which one: counts entries into ship
	closed  bool
	dropped bool // outbox overflowed; the server is deposing this session

	// The lease sweep's last look at ships, and when (stalled).
	sweptShips uint64
	sweptAt    time.Time
}

// outMsgPool recycles staged copies the session is done with once they
// have shipped: encoded (wire sessions), or applied by the receiver a pipe
// lent them to. One queued for a peer's Recv is that peer's for good.
var outMsgPool = sync.Pool{New: func() any { return new(core.Msg) }}

func newSession(conn asyncConn, store *Store) *session {
	return &session{conn: conn, store: store, cbDue: make(map[int64]time.Time)}
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

// stalled reports whether a pump has been inside one ship for longer than
// limit: parked in a write to a peer that stopped reading. When that pump
// is the session's own receiver (flushOwn) the session takes in nothing
// either, so no outbox limit will ever be reached on its behalf. The pump
// only numbers its ships; the clock is read here, by the lease sweep, which
// finds a ship stalled when it is still the one an earlier sweep saw, more
// than limit ago.
func (s *session) stalled(now time.Time, limit time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pumping && s.ships == s.sweptShips {
		return now.Sub(s.sweptAt) > limit
	}
	s.sweptShips, s.sweptAt = s.ships, now
	return false
}

// push stages one message. It reports overflow the first time the outbox
// exceeds limit (limit <= 0: unbounded) — the caller must then depose
// the session, because an outbox this deep means the client stopped
// draining its connection and every staged byte is dead weight. A quiet
// message is output of the request the session's own receiver is handling:
// nobody is kicked for it, the receiver ships it when the handler returns
// (flushOwn). Any other is kicked, which on a pipe does nothing: there the
// stager ships it (Server.stage hands the session back for settle).
func (s *session) push(m *core.Msg, quiet bool, limit int) (overflow bool) {
	staged := outMsgPool.Get().(*core.Msg)
	*staged = *m
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		outMsgPool.Put(staged)
		return false
	}
	s.outbox = append(s.outbox, staged)
	if quiet {
		s.own++
	}
	if limit > 0 && len(s.outbox) > limit && !s.dropped {
		s.dropped = true
		overflow = true
	}
	s.mu.Unlock()
	if !quiet {
		s.conn.Kick() // non-blocking, so callers may hold the engine lock
	}
	return overflow
}

// flushOwn ships what the request just handled staged for its own session
// (quiet entries). It runs on the driver's receiver, which pumps in person
// — sparing the reply a hand-off to the pump — only when it is certain to
// be back receiving promptly: nothing else is queued or being pumped, and
// no further request is waiting (idle). Otherwise the pump takes it, and a
// receiver that keeps receiving is what lets a session whose peer stopped
// reading run into its outbox limit. A pipe session has no pump to take
// it, so its receiver always pumps: that ships whatever else is staged too,
// or leaves it all to a pump already running, which looks again before it
// stops. (own only counts: another pump may already have shipped some of
// what it counts.)
func (s *session) flushOwn() {
	s.mu.Lock()
	own := s.own
	s.own = 0
	alone := own == len(s.outbox) && !s.pumping
	s.mu.Unlock()
	switch {
	case own == 0:
	case s.onPipe() || alone && s.conn.idle():
		s.pump()
	default:
		s.conn.Kick()
	}
}

// onPipe reports whether the session is a pipe's (pipeSession): its driver
// has no pump to kick, so whoever stages output for it ships it.
func (s *session) onPipe() bool {
	_, ok := s.conn.(*pipeSession)
	return ok
}

// close retires the outbox and tears the connection down, which makes
// the driver deliver its terminal callback and stop.
func (s *session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.conn.Close()
}

// pump is the one function that drains a session outbox: it ships what is
// staged, in order, and returns. The connection's driver calls it whenever
// Kick signaled staged output, the receiver for its own request's
// (flushOwn), and on a pipe whoever staged the output (Server.settle). The
// pumping flag admits one drainer at a time, so FIFO holds when they meet;
// entries staged mid-batch are picked up by the re-check (their Kick or
// settle may find pumping set, but this drainer clears the flag only after
// looking again).
func (s *session) pump() {
	s.mu.Lock()
	for !s.pumping && !s.closed && len(s.outbox) > 0 {
		whole := s.outbox
		n := len(whole)
		s.outbox = whole[n:] // what is staged meanwhile lands behind the batch
		s.pumping = true
		s.ships++
		s.mu.Unlock()
		err := s.ship(whole[:n:n])
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
	s.mu.Unlock()
}

// ship sends one batch in order, reading each data grant's payload out of
// the store as the grant leaves. It runs WITHOUT the engine lock; the
// store's page latches (shared here, exclusive in commit installs) keep
// each copy untorn.
//
// The payload still matches the lock state at grant time: a conflicting
// writer can install new bytes for a granted object only after calling
// back every registered copy — and the copy was registered under the
// engine lock when this grant was staged. The recipient answers
// that callback only after its client-side receiver has consumed
// this very message, which the FIFO outbox orders behind nothing that
// hasn't been sent — so the install strictly follows this read, whenever
// before the send it happens. On a pipe the answer may even be made inside
// the send, on this goroutine (the client's receiver answers the callback
// and delivers its answer to the server), but still only after the client
// has applied this message. Slots the grant marked Unavail are the one
// exception: their bytes may move underneath us, but clients never read
// Unavail slots from a granted page.
//
// There are two ways out, chosen by what the connection is. By frame
// (wire): the batch is encoded into one pooled buffer, payloads copied
// straight from the store's frames, and handed over in as few writes as
// encBufKeep allows. By reference (send): the payload is a copy of its own
// (readPage/readObj into payloadBuf), because the other end adopts it as
// its cached page. On a pipe whose other end installed a receiver the Send
// is, unless another goroutine is delivering to that end, the receiver's
// call — the client applies the message on this goroutine — and the Msg
// comes back with it.
func (s *session) ship(batch []*core.Msg) error {
	if s.wire == nil {
		for _, m := range batch {
			var err error
			switch m.Kind {
			case core.MPageData:
				m.Data, err = s.store.readPage(m.Page, s.payloadBuf)
			case core.MObjData:
				m.Data, err = s.store.readObj(m.Obj, s.payloadBuf)
			}
			lent := false
			if err == nil {
				lent, err = s.send(m)
			}
			if err != nil {
				return err
			}
			if lent {
				outMsgPool.Put(m)
			}
		}
		return nil
	}
	bp := encBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	for _, m := range batch {
		if buf, err = appendMsgFrame(buf, m, s.store); err != nil {
			break
		}
		outMsgPool.Put(m)
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
	return s.attachConn(conn, false)
}

// attachInternal registers the reclustering planner's session: its hello
// advertises the PHYSICAL page count (the spare region included, since
// migrations write there directly), it bypasses the relocation front
// door, and the engine marks it a system client so its commits
// and aborts stay out of user-facing stats. One at a time.
func (s *Server) attachInternal(conn Conn) (core.ClientID, error) {
	return s.attachConn(conn, true)
}

// attachConn attaches a session over a Conn. A pipe's session owns no
// goroutine (pipeSession) and is handed its messages by reference, payloads
// in the buffers its other end gave back; any other Conn is driven by a
// goroutine pair (blockingConn), and a tcpConn serialises (by frame).
func (s *Server) attachConn(conn Conn, internal bool) (core.ClientID, error) {
	if c, ok := conn.(*chanConn); ok {
		sess := newSession(&pipeSession{chanConn: c}, s.store)
		sess.send, sess.payloadBuf = c.send, c.peer.take
		return s.attach(sess, internal)
	}
	sess := newSession(newBlockingConn(conn, &s.wg), s.store)
	if c, ok := conn.(*tcpConn); ok {
		sess.wire = c
	} else {
		sess.send = func(m *core.Msg) (bool, error) { return false, conn.Send(m) }
		sess.payloadBuf = newBuf
	}
	return s.attach(sess, internal)
}

func (s *Server) attach(sess *session, internal bool) (core.ClientID, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("live: server closed")
	}
	s.nextID++
	id := s.nextID
	sess.id = id
	// Handlers are installed before the session is published and before
	// the driver starts, so no callback can beat them.
	recv := func(m *core.Msg, err error) { s.deliver(sess, m, err) }
	if sess.onPipe() {
		recv = func(m *core.Msg, err error) { s.deliverPipe(sess, m, err) }
	}
	sess.conn.SetHandlers(recv, sess.pump)
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
		held := s.lockEngine()
		s.eng.SetSystemClient(id)
		s.unlockEngine(held)
	}

	// Handshake: tell the client its id, the geometry, and the protocol.
	hello := &core.Msg{Kind: core.MHello, To: id, HelloID: id,
		HelloPages: int32(pages), HelloObjsPP: int32(opp), HelloObjSize: int32(objSize),
		HelloProto: s.opts.Proto}
	sess.push(hello, false, 0) // first message on the session, ahead of any grant
	sess.conn.Start()
	if sess.onPipe() {
		sess.pump() // the hello, unless Start's first request shipped it
	}
	return id, nil
}

// detach removes a session and sweeps the engine for its protocol state.
// The session leaves the map before the sweep, so its receiver's alive
// checks (under the engine lock) fail from then on — no message it
// already received can recreate engine state after the sweep (ghost
// resurrection).
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

	// Clean up the ghost's protocol state; stage any grants this
	// unblocks. The engine traces an abort for each of the ghost's
	// transactions, which retires its blockStart entry.
	held := s.lockEngine()
	after := s.stage(nil, s.eng.Disconnect(id), nil)
	s.unlockEngine(held)
	s.settle(after) // bounded: each recursion removes a session
}

// settle does what stage left for its caller once the engine lock it ran
// under is released: it ships the output staged for pipe sessions, which
// have no driver to kick, on this goroutine, and deposes the sessions whose
// outbox overflowed.
func (s *Server) settle(after []*session) {
	for _, sess := range after {
		sess.mu.Lock()
		dropped := sess.dropped
		sess.mu.Unlock()
		if dropped {
			s.detach(sess.id)
		} else {
			sess.pump()
		}
	}
}

// deliver is every session's receiver callback, whichever driver calls
// it: one inbound message through the engine, or the terminal error that
// retires the session. A handling-path panic sets closedFlag, so the
// lock-free closed checks stop new work, and writes the flight-recorder
// blackbox before the process goes down.
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
	sess.flushOwn()
}

// deliverPipe is a pipe session's receiver: deliver, on whichever goroutine
// sent the message. wg counts no such goroutine, so the call is counted in
// pipeCalls for join, and once the server is stopping it is not made: what
// Close tears down must not be reached by a request that arrives meanwhile.
// A receiver call further down this one's stack is counted again, so the
// count drains only when the outermost one returns.
func (s *Server) deliverPipe(sess *session, m *core.Msg, err error) {
	s.pipeCalls.Add(1)
	defer func() {
		if s.pipeCalls.Add(-1) == 0 && s.closedFlag.Load() {
			s.pipeMu.Lock()
			s.pipeIdle.Broadcast()
			s.pipeMu.Unlock()
		}
	}()
	if s.closedFlag.Load() {
		return // stopLocked has detached every session
	}
	s.deliver(sess, m, err)
}

// stage pushes the engine's outputs onto their sessions' outboxes, in
// engine order (the wire order), under the engine lock. A data
// grant is staged as the engine made it, without its payload: ship reads
// that as the grant leaves. self is the session whose request produced
// outs, when its own receiver is the caller, which ships its own output
// itself (flushOwn). stage also arms callback deadlines. It appends to
// after what the caller must settle once it has released the lock: the
// pipe sessions it staged output for, and the sessions whose outbox
// overflowed.
func (s *Server) stage(self *session, outs []core.Msg, after []*session) []*session {
	sessions := s.sessionMap()
	for i := range outs {
		om := &outs[i]
		sess := sessions[om.To]
		if sess == nil {
			continue // client departed; detach cleans its state up
		}
		switch om.Kind {
		case core.MPageData:
			if s.relocs != nil {
				// A granted page may carry retired (moved-away-from) slots:
				// mark them unavailable so the client's cached copy routes
				// their reads back to the server, which redirects. Staged
				// under the engine lock, so the marks match the
				// relocation state the grant was decided under.
				if ret := s.relocs.view().retiredSlots(om.Page); len(ret) > 0 {
					om.Unavail = append(append([]uint16(nil), om.Unavail...), ret...)
				}
			}
		case core.MCallback:
			if s.opts.CallbackTimeout > 0 {
				sess.armCB(om.Req, time.Now().Add(s.opts.CallbackTimeout))
			}
		}
		overflow := sess.push(om, sess == self, s.opts.outboxLimit)
		if overflow {
			s.metrics.outboxDeposes.Inc()
		}
		if overflow || sess != self && sess.onPipe() && (len(after) == 0 || after[len(after)-1] != sess) {
			after = append(after, sess)
		}
	}
	return after
}
