//go:build linux

package live

// The reactor transport: every TCP session multiplexed onto a small set
// of epoll event loops, so the server's steady-state goroutine count is
// O(loops), not O(sessions). The goroutine transport costs two
// goroutines per session (blockingConn's reader + pump) — fine at the
// paper's 32 clients, dead at the 10k-100k sessions a page server is
// supposed to hold. Both drive the same session machine (session.go)
// through asyncConn.
//
// Topology: one epoll instance per loop, connections assigned round-robin
// at accept. Sockets are registered EPOLLIN|EPOLLET; each loop does
// non-blocking reads into a loop-owned scratch buffer, reassembles the
// 4-byte length-prefixed frames in a pooled per-connection buffer, and
// delivers messages straight into the server's handler (the receiver
// callback attach installed), whose reply the same loop ships before it
// reads on (session.flushOwn). Writes go straight to the socket,
// non-blocking; what a full socket refuses waits in a per-connection
// pending byte queue, a short write arms EPOLLOUT, and the loop finishes
// the drain when the socket opens up. A connection whose pending queue
// exceeds the drain cap is deposed — a reader this slow makes every
// queued byte dead weight, exactly the outbox-limit argument at the byte
// level.
//
// Edge-trigger invariants (DESIGN.md §17):
//   - reads always continue to EAGAIN (or requeue themselves) before the
//     loop moves on, so a level can never be stranded;
//   - EPOLLOUT is armed only after a write actually returned EAGAIN or
//     came up short, so the next writability EDGE is guaranteed to be
//     ahead of us, and a MOD re-reports a condition that already holds;
//   - cross-thread state changes (Kick, Close) reach the loop through an
//     op queue plus a self-pipe wakeup, never by touching epoll state the
//     loop believes it owns.
//
// Ownership: a connection belongs to exactly one loop, and its fd lives
// in that loop's map. Closes execute only on the owning loop (queued as
// ops), so an fd number can never be recycled while its old registration
// is still reachable — a stale event for a closed fd misses the map and
// is dropped. The per-connection processing flag is the belt to those
// suspenders: even if an event were ever delivered to two workers, one
// connection still could not occupy both.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/core"
)

const (
	// reactorScratch is each loop's read buffer: one syscall's worth of
	// inbound bytes, shared by every connection on the loop (reads are
	// loop-serialized, so one buffer suffices).
	reactorScratch = 64 << 10
	// reactorMaxReads bounds one connection's consecutive reads per pass.
	// Edge triggering obliges us to read to EAGAIN, but a firehose sender
	// must not starve the loop's other connections — past the bound the
	// connection requeues itself as an op and the loop round-robins.
	reactorMaxReads = 16
)

var errSlowReader = fmt.Errorf("live: reactor pending queue over drain cap (slow reader)")

// rbufPool recycles per-connection frame-reassembly buffers. A connection
// holds one only while a partial frame is in flight; between messages the
// buffer returns here, so 10k idle sessions pin no read memory at all.
var rbufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

func getRbuf() []byte {
	bp := rbufPool.Get().(*[]byte)
	return (*bp)[:0]
}

func putRbuf(b []byte) {
	if cap(b) == 0 || cap(b) > readBufKeep {
		return // oversized by a burst frame: let the GC take it
	}
	b = b[:0]
	rbufPool.Put(&b)
}

// reactor owns the loops and hands out connections.
type reactor struct {
	loops    []*rloop
	next     atomic.Uint32 // round-robin accept assignment
	drainCap int
	m        *serverMetrics

	stopped atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
	downOne sync.Once // closes loop fds exactly once, after the loops exit
}

// newReactor builds and starts the server's event loops. Fails only when
// the platform shim does (non-Linux stub) or fd creation fails; the
// caller then falls back to the goroutine transport.
func newReactor(s *Server) (*reactor, error) {
	r := &reactor{
		drainCap: s.opts.reactorDrainCap,
		m:        s.metrics,
		stopCh:   make(chan struct{}),
	}
	for i := 0; i < s.opts.reactorLoops; i++ { // defaults() made it positive
		l, err := newRloop(r)
		if err != nil {
			r.stop()
			r.wait()
			return nil, err
		}
		r.loops = append(r.loops, l)
	}
	for _, l := range r.loops {
		r.wg.Add(1)
		go l.run()
	}
	return r, nil
}

// stop signals every loop to exit. Non-blocking: safe under s.mu and
// from a loop goroutine itself (crashLocked may run on one).
func (r *reactor) stop() {
	if r.stopped.CompareAndSwap(false, true) {
		close(r.stopCh)
		for _, l := range r.loops {
			l.wakeup()
		}
	}
}

// wait joins the loops and then releases their epoll and wake-pipe fds.
// The fds close strictly after every producer of wakeups is gone (loops
// joined here; session drivers, the watchdog, and the planner joined by
// Server.join before it calls this), so no write can land on a recycled
// fd.
func (r *reactor) wait() {
	r.wg.Wait()
	r.downOne.Do(func() {
		for _, l := range r.loops {
			syscall.Close(l.ep)
			syscall.Close(l.wakeR)
			syscall.Close(l.wakeW)
		}
	})
}

// shutdown stops and joins. Idempotent.
func (r *reactor) shutdown() {
	r.stop()
	r.wait()
}

// takeover moves an accepted net.Conn's socket under reactor ownership:
// dup the fd out of the runtime netpoller, close the original, restore
// non-blocking mode (File() flips it off), and assign a loop. The socket
// is NOT yet registered with epoll — attach installs the receiver first
// and registers through Start, so no event can beat the handlers.
func (r *reactor) takeover(c net.Conn) (*rconn, error) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return nil, fmt.Errorf("live: reactor takeover needs a TCP conn, got %T", c)
	}
	f, err := tc.File()
	if err != nil {
		return nil, err
	}
	tc.Close()
	fd := int(f.Fd())
	if err := syscall.SetNonblock(fd, true); err != nil {
		f.Close()
		return nil, err
	}
	l := r.loops[int(r.next.Add(1))%len(r.loops)]
	return &rconn{loop: l, fd: fd, f: f, drainCap: r.drainCap}, nil
}

// ---- event loop ----

type ropKind uint8

const (
	opKick ropKind = iota // run the session pump
	opClose
	opRead // fairness requeue: resume a read pass
)

type rop struct {
	kind ropKind
	c    *rconn
}

type rloop struct {
	r     *reactor
	ep    int
	wakeR int
	wakeW int

	// mu guards conns and ops. conns maps registered fds; inserts happen
	// on handshake goroutines, lookups and removals on the loop. The
	// mutex doubles as the memory fence publishing a connection's
	// handlers to the loop.
	mu    sync.Mutex
	conns map[int]*rconn
	ops   []rop

	wakeArmed atomic.Bool
	scratch   []byte
	events    []syscall.EpollEvent
	wakeBuf   [64]byte
}

func newRloop(r *reactor) (*rloop, error) {
	ep, err := epollCreate()
	if err != nil {
		return nil, err
	}
	wr, ww, err := wakePipe()
	if err != nil {
		syscall.Close(ep)
		return nil, err
	}
	l := &rloop{
		r: r, ep: ep, wakeR: wr, wakeW: ww,
		conns:   make(map[int]*rconn),
		scratch: make([]byte, reactorScratch),
		events:  make([]syscall.EpollEvent, 128),
	}
	if err := epollAdd(ep, wr, epIn); err != nil { // level-triggered wake
		syscall.Close(ep)
		syscall.Close(wr)
		syscall.Close(ww)
		return nil, err
	}
	return l, nil
}

// enqueue queues an op for the loop and wakes it.
func (l *rloop) enqueue(op rop) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
	l.wakeup()
}

// wakeup pokes the loop's self-pipe; the armed flag coalesces storms of
// kicks into at most one in-flight byte.
func (l *rloop) wakeup() {
	if l.wakeArmed.CompareAndSwap(false, true) {
		var one [1]byte
		syscall.Write(l.wakeW, one[:]) // EAGAIN (pipe full) still wakes
	}
}

func (l *rloop) run() {
	defer l.r.wg.Done()
	for {
		n, err := epollWait(l.ep, l.events)
		if l.r.stopped.Load() {
			l.teardownAll()
			return
		}
		if err != nil {
			// The epoll fd itself failing is unrecoverable for this loop;
			// close its connections so their sessions detach.
			l.teardownAll()
			return
		}
		// Wake/ops first: closes queued for fds in this very batch must
		// win, so their stale events miss the map below.
		for i := 0; i < n; i++ {
			if int(l.events[i].Fd) == l.wakeR {
				l.drainWake()
				break
			}
		}
		l.runOps()
		for i := 0; i < n; i++ {
			ev := &l.events[i]
			fd := int(ev.Fd)
			if fd == l.wakeR {
				continue
			}
			l.mu.Lock()
			rc := l.conns[fd]
			l.mu.Unlock()
			if rc == nil {
				continue // closed (or recycled) underneath the batch
			}
			if ev.Events&(epIn|epErr|epHup) != 0 {
				// Errors and hangups surface through the read: it returns
				// 0 or the socket error, and fail() routes the detach.
				l.readable(rc)
			}
			if ev.Events&epOut != 0 {
				rc.writable()
			}
		}
		l.runOps() // ops enqueued by handlers during this batch
	}
}

func (l *rloop) drainWake() {
	// Empty the pipe, THEN clear the armed flag, and only then drain ops
	// (runOps follows). A wakeup whose CAS finds the flag still set has
	// already appended its op, which this pass collects; one that CASes
	// false->true after the clear writes a byte no drain here can swallow,
	// so the next epoll_wait sees it. Clearing first lost wakeups: a byte
	// written between the clear and the read was read away, leaving the
	// flag armed over an empty pipe, and every later kick queued its op
	// without a byte to wake the loop.
	for {
		n, err := syscall.Read(l.wakeR, l.wakeBuf[:])
		if n < len(l.wakeBuf) || err != nil {
			break
		}
	}
	l.wakeArmed.Store(false)
}

func (l *rloop) runOps() {
	l.mu.Lock()
	ops := l.ops
	l.ops = nil
	l.mu.Unlock()
	for _, op := range ops {
		switch op.kind {
		case opKick:
			op.c.kicked.Store(false)
			if pump := op.c.pump; pump != nil && !op.c.closed.Load() {
				pump()
			}
		case opClose:
			l.teardown(op.c)
		case opRead:
			l.readable(op.c)
		}
	}
}

// readable drains one connection's socket under the processing flag: if
// another worker (or a stale cross-loop event) already owns the
// connection, we record a repoll and leave — one connection never
// occupies two workers. The owner re-checks repoll after finishing, so
// the signal cannot be lost.
func (l *rloop) readable(rc *rconn) {
	if !rc.processing.CompareAndSwap(false, true) {
		rc.repoll.Store(true)
		return
	}
	for {
		rc.readPass(l)
		rc.processing.Store(false)
		if !rc.repoll.CompareAndSwap(true, false) {
			return
		}
		if !rc.processing.CompareAndSwap(false, true) {
			return // the flagger took over
		}
	}
}

// teardownAll closes every connection still owned by the loop (loop
// exit: reactor stop or epoll failure).
func (l *rloop) teardownAll() {
	l.mu.Lock()
	conns := make([]*rconn, 0, len(l.conns))
	for _, rc := range l.conns {
		conns = append(conns, rc)
	}
	l.mu.Unlock()
	for _, rc := range conns {
		rc.closed.Store(true)
		l.teardown(rc)
	}
}

// teardown executes a connection's close on its owning loop: unregister,
// release the fd, and deliver the terminal receiver callback (which
// detaches the session; detach on an already-removed session no-ops).
func (l *rloop) teardown(rc *rconn) {
	l.mu.Lock()
	_, present := l.conns[rc.fd]
	delete(l.conns, rc.fd)
	l.mu.Unlock()
	if !present {
		return // already torn down (close op + loop-exit sweep)
	}
	rc.wmu.Lock()
	if rc.registered {
		epollDel(l.ep, rc.fd)
		rc.registered = false
	}
	rc.pending = nil
	rc.wmu.Unlock()
	rc.f.Close()
	if rc.rbuf != nil {
		putRbuf(rc.rbuf)
		rc.rbuf = nil
	}
	if rc.recv != nil {
		// The receiver only needs to know the connection ended; which
		// failure ended it is not carried across goroutines.
		rc.recv(nil, io.EOF)
	}
}

// ---- connection ----

// rconn is one reactor-owned connection: the session's driver (asyncConn)
// and the sink of the frames it ships (frameSink).
type rconn struct {
	loop     *rloop
	fd       int
	f        *os.File // owns the dup'd fd; closed exactly once by teardown
	drainCap int

	// Handlers, installed by attach before Start's epoll registration
	// publishes the connection to its loop.
	recv func(*core.Msg, error)
	pump func()

	// Read state, touched only inside the processing-flag section.
	rbuf       []byte
	processing atomic.Bool
	repoll     atomic.Bool

	// Write state under wmu: the pending byte queue [woff:], the
	// EPOLLOUT arming flag, and the sticky error.
	wmu        sync.Mutex
	pending    []byte
	woff       int
	wantW      bool
	registered bool
	werr       error

	kicked atomic.Bool
	closed atomic.Bool
}

func (rc *rconn) SetHandlers(recv func(*core.Msg, error), pump func()) {
	rc.recv = recv
	rc.pump = pump
}

// Kick schedules the session pump on the owning loop. The CAS coalesces
// bursts — between the op being queued and run, further kicks are free.
func (rc *rconn) Kick() {
	if rc.closed.Load() {
		return
	}
	if rc.kicked.CompareAndSwap(false, true) {
		rc.loop.enqueue(rop{kind: opKick, c: rc})
	}
}

// Start registers the socket with its loop's epoll set; a failure fails
// the connection, and the loop's terminal callback detaches the session.
func (rc *rconn) Start() {
	if err := rc.register(); err != nil {
		rc.fail()
	}
}

// register adds the socket to its loop's epoll set. Any output already
// pumped (the hello) keeps EPOLLOUT armed from the start if its flush
// came up short.
func (rc *rconn) register() error {
	l := rc.loop
	l.mu.Lock()
	l.conns[rc.fd] = rc
	l.mu.Unlock()
	rc.wmu.Lock()
	events := epIn | epET
	if rc.wantW {
		events |= epOut
	}
	err := epollAdd(l.ep, rc.fd, events)
	if err == nil {
		rc.registered = true
	}
	rc.wmu.Unlock()
	if err != nil {
		l.mu.Lock()
		delete(l.conns, rc.fd)
		l.mu.Unlock()
		return err
	}
	return nil
}

// idle: the loop's writes never block, so it can always afford to ship the
// reply to the request it just read.
func (rc *rconn) idle() bool { return true }

// writeFrames puts whole encoded frames on the socket without blocking;
// what the socket does not take now is queued behind what it refused
// earlier, for the loop to drain on the next writability edge. Exceeding
// the drain cap deposes the connection: the error is returned AND the
// close is scheduled, so the pump stops and the session detaches.
func (rc *rconn) writeFrames(b []byte) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	if rc.werr != nil {
		return rc.werr
	}
	if !rc.wantW { // else bytes are queued and the loop owns the drain
		n, err := rc.writeLocked(b)
		if err != nil {
			return err
		}
		b = b[n:]
	}
	if len(b) == 0 {
		return nil
	}
	rc.pending = append(rc.pending, b...)
	if rc.drainCap > 0 && len(rc.pending)-rc.woff > rc.drainCap {
		rc.werr = errSlowReader
		rc.loop.r.m.reactorDeposes.Inc()
		rc.fail()
		return errSlowReader
	}
	return nil
}

// writeLocked writes b until the socket stops taking it and reports how
// far it got; a write that would block arms EPOLLOUT.
func (rc *rconn) writeLocked(b []byte) (int, error) {
	off := 0
	for off < len(b) {
		n, err := syscall.Write(rc.fd, b[off:])
		if n > 0 {
			off += n
		}
		switch err {
		case nil:
		case syscall.EAGAIN:
			rc.armWriteLocked()
			return off, nil
		case syscall.EINTR:
			// retry
		default:
			rc.werr = err
			rc.fail()
			return off, err
		}
	}
	return off, nil
}

// armWriteLocked arms EPOLLOUT (edge-triggered) after a write actually
// hit EAGAIN — the only ordering under which the next edge is guaranteed
// to be ahead of us. Pre-registration the flag alone suffices; register
// folds it into the initial mask.
func (rc *rconn) armWriteLocked() {
	if rc.wantW {
		return
	}
	rc.wantW = true
	if rc.registered {
		epollMod(rc.loop.ep, rc.fd, epIn|epOut|epET)
	}
}

// writable drains the pending queue on a writability edge and disarms
// EPOLLOUT once it empties.
func (rc *rconn) writable() {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	if rc.werr != nil || rc.closed.Load() {
		return
	}
	rc.wantW = false
	n, err := rc.writeLocked(rc.pending[rc.woff:]) // re-arms on another short write
	rc.woff += n
	if err != nil || rc.wantW {
		return
	}
	// Fully drained: drop the queue, so an idle session pins nothing.
	rc.pending, rc.woff = nil, 0
	if rc.registered {
		epollMod(rc.loop.ep, rc.fd, epIn|epET)
	}
}

// readPass reads to EAGAIN (or the fairness bound), reassembling and
// delivering frames. Runs only under the processing flag.
func (rc *rconn) readPass(l *rloop) {
	for reads := 0; ; reads++ {
		if rc.closed.Load() {
			return
		}
		n, err := syscall.Read(rc.fd, l.scratch)
		if n > 0 {
			if rc.rbuf == nil {
				rc.rbuf = getRbuf()
			}
			rc.rbuf = append(rc.rbuf, l.scratch[:n]...)
			if rc.deliver() != nil {
				rc.fail()
				return
			}
		}
		switch {
		case err == syscall.EAGAIN:
			return
		case err == syscall.EINTR:
			continue
		case err != nil || n == 0: // socket error, or EOF
			rc.fail()
			return
		}
		if reads >= reactorMaxReads {
			// Fairness: let the loop's other connections run; resume via an op.
			l.enqueue(rop{kind: opRead, c: rc})
			return
		}
	}
}

// deliver parses complete frames out of rbuf and hands them to the
// receiver, then compacts. decodeMsg copies everything it keeps, so the
// buffer is reusable immediately.
func (rc *rconn) deliver() error {
	buf := rc.rbuf
	off := 0
	for {
		if len(buf)-off < 4 {
			break
		}
		n := binary.LittleEndian.Uint32(buf[off:])
		if n > maxFrame {
			return fmt.Errorf("live: frame length %d exceeds limit", n)
		}
		if len(buf)-off < 4+int(n) {
			break
		}
		m, err := decodeMsg(buf[off+4 : off+4+int(n)])
		if err != nil {
			return err
		}
		off += 4 + int(n)
		if rc.recv != nil {
			rc.recv(m, nil)
		}
		if rc.closed.Load() {
			break // the handler detached us; drop the rest
		}
	}
	if off > 0 {
		rest := copy(buf, buf[off:])
		rc.rbuf = buf[:rest]
	}
	if len(rc.rbuf) == 0 {
		putRbuf(rc.rbuf)
		rc.rbuf = nil
	}
	return nil
}

// Close schedules the connection's teardown on its owning loop.
func (rc *rconn) Close() error {
	rc.fail()
	return nil
}

// fail marks the connection dead and queues the close op. First caller
// wins; the loop delivers exactly one terminal receiver callback. Safe
// with or without wmu held.
func (rc *rconn) fail() {
	if rc.closed.CompareAndSwap(false, true) {
		rc.loop.enqueue(rop{kind: opClose, c: rc})
	}
}

// destroy releases an rconn that was never attached nor registered (the
// Attach-failed path: no session, no handlers, no ops in flight).
func (rc *rconn) destroy() {
	rc.closed.Store(true)
	rc.f.Close()
}

// attachReactor runs a handshaken connection on the reactor: take the fd
// over and attach the session, which installs the handlers, stages the
// hello and only then registers with epoll (Start) — so no event can
// arrive before the session exists, and the hello rides the initial event
// mask.
func (s *Server) attachReactor(r *reactor, c net.Conn) {
	rc, err := r.takeover(c)
	if err != nil {
		// Not a TCP socket or the dup failed; the goroutine transport
		// still serves this connection fine.
		s.attachGoroutine(c)
		return
	}
	sess := newSession(rc, s.store)
	sess.wire = rc
	if _, err := s.attach(sess, false); err != nil {
		rc.destroy()
	}
}
