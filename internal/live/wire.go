package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Conn is a bidirectional, ordered message channel between one client and
// the server. Both in-process and TCP transports implement it.
//
// Ownership: a message and everything it points at (Data, Updates, the
// id slices) pass to the transport on Send. What the other side gets
// depends on how the message reaches it. Recv hands the message over: the
// caller may keep or modify all of it without copying. A receiver the
// in-process pipe calls instead (chanConn.setReceiver; both ends of an
// attached pipe install one) is LENT the Msg for the length of the call: it
// keeps Data — the client adopts a page reply's Data as its cached page —
// and nothing else, neither the *Msg nor a pointer into it, because the
// sender may take the Msg back when the call returns (session.ship pools
// it; a client never takes its requests back, so the server's receiver
// keeps what it likes of those). Either way whoever fills a message puts in
// bytes nobody else holds (the store reads into a buffer of the message's
// own, Recv copies out of its read buffer; the client copies afterimages
// out of its cache into Updates).
//
// Recycling: a transport may offer to take a Data buffer back (recycler)
// and land a later payload in it. Whoever returns one guarantees that no
// reference to it survives. The client returns a page's buffer when its
// cache drops the page. Txn.Read hands out views into cached pages, but
// only into pages the transaction has pinned, and a pinned page's buffer
// replaced by a refetch, like any buffer an abort drops, goes back only at
// the next Begin, when the transaction's views are dead. Commit copies
// afterimages.
type Conn interface {
	// Send transmits one message. Safe for concurrent use. When it
	// returns nil the message is on its way: applied by or queued for the
	// in-process peer, or written through to the socket.
	Send(m *core.Msg) error
	// Recv blocks for the next message. Single consumer; an end with a
	// receiver installed has nothing to Recv.
	Recv() (*core.Msg, error)
	// Close tears the connection down; pending Recv returns an error.
	Close() error
}

// asyncConn is the push-mode driver every server session runs on. Instead
// of the owner parking in Recv, it installs a receiver callback (invoked
// once per inbound message in wire order, never concurrently, then once
// with a terminal error) and a pump callback that drains the owner's outbox
// into the connection. Start begins delivery; no receiver call precedes it.
// Kick schedules the pump on the driver; it is non-blocking and safe to call
// under any lock, so the server can request output from inside the engine
// without doing wire work there. idle is the receiver's question, asked
// from inside its callback, whether it may spend its own time on output: no
// further inbound message is waiting, so it will be back receiving promptly
// (session.flushOwn). Close tears the connection down, which ends in the
// terminal receiver call. Three drivers implement it: the reactor's rconn
// (event loops), blockingConn (two goroutines over a socket) and
// pipeSession (no goroutine at all).
type asyncConn interface {
	SetHandlers(recv func(m *core.Msg, err error), pump func())
	Start()
	Kick()
	idle() bool
	Close() error
}

// frameSink is a connection that serialises its messages (tcpConn, rconn):
// session.ship encodes a batch itself, data grants straight out of the
// store, and hands over whole frames.
type frameSink interface {
	writeFrames(b []byte) error
}

// blockingConn drives a session over a blocking Conn that is not a pipe (a
// tcpConn, or a test's wrapper): one goroutine parks in Recv and feeds the
// receiver, a second turns kicks into pump calls. Both are counted on wg
// and exit once the connection is closed.
type blockingConn struct {
	c     Conn
	probe func() bool // c's idle, if it can tell
	wg    *sync.WaitGroup
	recv  func(*core.Msg, error)
	pump  func()

	kick     chan struct{} // cap 1: a pending kick covers every later one
	done     chan struct{}
	doneOnce sync.Once
}

func newBlockingConn(c Conn, wg *sync.WaitGroup) *blockingConn {
	b := &blockingConn{c: c, wg: wg, kick: make(chan struct{}, 1), done: make(chan struct{})}
	if p, ok := c.(interface{ idle() bool }); ok {
		b.probe = p.idle
	}
	return b
}

func (b *blockingConn) SetHandlers(recv func(*core.Msg, error), pump func()) {
	b.recv, b.pump = recv, pump
}

func (b *blockingConn) Start() {
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		poll(b.c, b.recv)
	}()
	go func() {
		defer b.wg.Done()
		for {
			select {
			case <-b.kick:
				b.pump()
			case <-b.done:
				return
			}
		}
	}()
}

func (b *blockingConn) Kick() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// idle: a Conn that cannot tell is never idle, so its receiver leaves all
// output to the pump goroutine.
func (b *blockingConn) idle() bool { return b.probe != nil && b.probe() }

func (b *blockingConn) Close() error {
	b.doneOnce.Do(func() { close(b.done) })
	return b.c.Close()
}

// pipeSession drives a session over the server's end of an in-process pipe
// and owns no goroutine: the session's receiver is the end's, called by
// whoever sends to it (chanConn.send), and the session's output is shipped
// by whoever staged it, once out of the engine lock (Server.settle) — so
// there is no pump to kick.
type pipeSession struct {
	*chanConn
	recv func(*core.Msg, error)
}

func (p *pipeSession) SetHandlers(recv func(*core.Msg, error), _ func()) { p.recv = recv }
func (p *pipeSession) Start()                                            { p.setReceiver(p.recv) }
func (p *pipeSession) Kick()                                             {}

// idle is never asked: a pipe session's receiver always ships its own
// request's output (session.flushOwn).
func (p *pipeSession) idle() bool { return true }

// receive makes recv the receiver of a client's end of a connection, the
// client-side counterpart of asyncConn with the same contract: one call per
// inbound message in wire order, never concurrently, then one with the
// terminal error. An in-process pipe makes the calls itself, from whichever
// goroutine is sending (chanConn.setReceiver), so a client over one owns no
// goroutine; any other Conn has to be polled, by a reader that exits with
// the terminal error. What a pipe had queued is delivered before receive
// returns, so the caller must hold no lock recv takes.
func receive(conn Conn, recv func(*core.Msg, error)) {
	if p, ok := conn.(*chanConn); ok {
		p.setReceiver(recv)
		return
	}
	go poll(conn, recv)
}

// poll feeds recv from c.Recv until that fails, the failure included.
func poll(c Conn, recv func(*core.Msg, error)) {
	for {
		m, err := c.Recv()
		recv(m, err)
		if err != nil {
			return
		}
	}
}

// ---- In-process transport ----

var errConnClosed = errors.New("live: connection closed")

// recycler is a connection that takes payload buffers back (see Conn).
type recycler interface {
	recycle(buf []byte)
}

// spareBuf holds one recycled payload buffer until a payload fits it.
type spareBuf struct {
	mu  sync.Mutex
	buf []byte
}

// recycle takes back a buffer the connection handed out as some message's
// Data, now that nothing refers to it (see Conn). It replaces the one
// held before.
func (s *spareBuf) recycle(buf []byte) {
	s.mu.Lock()
	s.buf = buf
	s.mu.Unlock()
}

// take returns n bytes nobody else holds: the recycled buffer when that
// fits without wasting more than half of it, fresh ones otherwise.
func (s *spareBuf) take(n int) []byte {
	s.mu.Lock()
	buf := s.buf
	if cap(buf) >= n && cap(buf)/2 <= n {
		s.buf = nil
	} else {
		buf = nil
	}
	s.mu.Unlock()
	if buf == nil {
		return make([]byte, n)
	}
	return buf[:n]
}

// chanConn is one endpoint of an in-process connection. Its owner either
// polls it (Recv: what the peer sends waits in a channel) or installs a
// receiver (setReceiver), which the senders call themselves through the
// end's run queue, on their own goroutines; nothing is woken for a message.
//
// The run queue is the one rule for delivery by call. A Send appends to it
// under rmu. If nobody is delivering to the end, the sender becomes its
// deliverer and drains the queue, calling the receiver with no lock held;
// otherwise it returns, and the current deliverer delivers the message in
// its turn. So there is one deliverer per end at a time — messages arrive
// in wire order, never concurrently — and a receiver may Send to any end,
// one further up its own stack included: the message waits in that end's
// queue for the deliverer above. A sender may also only queue (post, under
// a lock of its own that the receivers it would reach take) and deliver
// once it has let go of it (flush).
type chanConn struct {
	in   chan *core.Msg
	out  chan *core.Msg
	peer *chanConn
	once *sync.Once // shared: either side's Close tears down both
	done chan struct{}

	// rmu orders everything that reaches this end: each of the peer's Sends
	// appends under it — to in while the owner polls, to queue once a
	// receiver is installed — so messages arrive in Send order whichever
	// way they arrive, and the switch from one way to the other loses and
	// reorders nothing.
	rmu        sync.Mutex
	recv       func(*core.Msg, error) // nil: queue for Recv
	queue      []*core.Msg            // queue[head:] awaits the receiver
	head       int
	delivering bool // a goroutine is draining queue into recv
	endDue     bool // Close came while delivering: the deliverer starts end

	spareBuf // what this end's owner gave back; the peer's payloads land in it
}

// Pipe creates a connected in-process transport pair (client end, server
// end). The buffer keeps senders to an end that polls from blocking under
// normal operation.
func Pipe() (Conn, Conn) {
	a2b := make(chan *core.Msg, 1024)
	b2a := make(chan *core.Msg, 1024)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &chanConn{in: b2a, out: a2b, done: done, once: once}
	b := &chanConn{in: a2b, out: b2a, done: done, once: once, peer: a}
	a.peer = b
	return a, b
}

func (c *chanConn) Send(m *core.Msg) error {
	_, err := c.send(m)
	return err
}

// send is Send, and reports whether the message was lent to the peer's
// receiver by this very call (and is the caller's again) rather than queued
// (and the peer's for good): a message queued behind another deliverer is
// not lent back.
//
// A sender whose own end is polled never delivers: its owner may hold,
// across Send, a lock its poller needs (a Client over a wrapped pipe holds
// c.mu), and what the peer's receiver sends back could fill this end's
// channel and park the sender against its own poller. Its message is
// queued; one queued for the peer's receiver is delivered on a goroutine
// of its own, one in the peer's Recv channel waits for the peer's poller.
func (c *chanConn) send(m *core.Msg) (lent bool, err error) {
	p := c.peer
	if c.polled() {
		p.rmu.Lock()
		err := c.postLocked(m)
		forReceiver := p.recv != nil
		p.rmu.Unlock()
		if err == nil && forReceiver {
			go c.flush()
		}
		return false, err
	}
	p.rmu.Lock()
	if p.recv == nil || p.delivering || p.head < len(p.queue) {
		err := c.postLocked(m)
		p.rmu.Unlock()
		if err == nil {
			c.flush()
		}
		return false, err
	}
	if err := c.closed(); err != nil {
		p.rmu.Unlock()
		return false, err
	}
	p.delivering = true
	recv := p.recv
	p.rmu.Unlock()
	recv(m, nil)
	p.rmu.Lock()
	p.deliverLocked()
	return true, nil
}

// polled reports whether this end's owner polls it (Recv) rather than
// having installed a receiver.
func (c *chanConn) polled() bool {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.recv == nil
}

// post queues m for the peer without delivering it: the caller holds a lock
// the peer's receiver takes, and delivers once it has let go (flush). What
// is posted keeps its place in the wire order.
func (c *chanConn) post(m *core.Msg) error {
	p := c.peer
	p.rmu.Lock()
	defer p.rmu.Unlock()
	return c.postLocked(m)
}

// postLocked appends m to the peer's run queue, or to its Recv channel while
// it has no receiver (p.rmu held).
func (c *chanConn) postLocked(m *core.Msg) error {
	p := c.peer
	if err := c.closed(); err != nil {
		return err
	}
	if p.recv != nil {
		p.queue = append(p.queue, m)
		return nil
	}
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return errConnClosed
	}
}

// closed reports the closure that makes every later Send fail. Checked
// first: a two-way select picks randomly when the buffer has room AND the
// pipe is closed, which would make Send on a dead connection succeed
// nondeterministically.
func (c *chanConn) closed() error {
	select {
	case <-c.done:
		return errConnClosed
	default:
		return nil
	}
}

// flush delivers what is queued for the peer, unless somebody already is.
// The caller must hold no lock the peer's receiver takes.
func (c *chanConn) flush() {
	p := c.peer
	p.rmu.Lock()
	if p.recv == nil || p.delivering || p.head == len(p.queue) {
		p.rmu.Unlock()
		return
	}
	p.delivering = true
	p.deliverLocked()
}

// deliverLocked is the deliverer's loop: it drains the run queue, releasing
// rmu around each receiver call, then stands down — and starts the terminal
// call if a Close came meanwhile. Entered holding rmu as the deliverer;
// returns having released it.
func (c *chanConn) deliverLocked() {
	c.drainLocked()
	c.delivering = false
	end := c.endDue
	c.endDue = false
	c.rmu.Unlock()
	if end {
		go c.end()
	}
}

// drainLocked calls the receiver for each queued message, in order, with rmu
// released around the call (the caller is the deliverer).
func (c *chanConn) drainLocked() {
	for c.head < len(c.queue) {
		m := c.queue[c.head]
		c.queue[c.head] = nil
		c.head++
		recv := c.recv
		c.rmu.Unlock()
		recv(m, nil)
		c.rmu.Lock()
	}
	c.queue, c.head = c.queue[:0], 0
}

// setReceiver switches this end to delivery by call: recv gets what is
// already queued, then every message the peer Sends, in order and never
// concurrently, on whichever goroutine is sending — so it must not wait for
// anything that goroutine does next — and, once the pipe is closed, one
// terminal call with an error, on a goroutine of its own (it may take its
// time). The caller delivers what was queued, so it must hold no lock recv
// takes.
func (c *chanConn) setReceiver(recv func(*core.Msg, error)) {
	c.rmu.Lock()
	c.recv = recv
	for queued := true; queued; {
		select {
		case m := <-c.in:
			c.queue = append(c.queue, m)
		default:
			queued = false
		}
	}
	// Close came first and found no receiver to tell.
	c.endDue = c.closed() != nil
	c.delivering = true
	c.deliverLocked()
}

// end makes the receiver's terminal call, if there is a receiver, and
// retires it, so the call is made once. Close has happened, so no Send
// queues any more; what was queued before is delivered first. A deliverer
// busy with this end is left to finish and start end again (endDue).
func (c *chanConn) end() {
	c.rmu.Lock()
	if c.delivering {
		c.endDue = true
		c.rmu.Unlock()
		return
	}
	recv := c.recv
	if recv != nil {
		c.delivering = true
		c.drainLocked()
		c.recv = nil
		c.delivering = false
	}
	c.rmu.Unlock()
	if recv != nil {
		recv(nil, errConnClosed)
	}
}

func (c *chanConn) Recv() (*core.Msg, error) {
	// Drain first: a message that was successfully Sent before Close must
	// be delivered, not eaten by the racing closure — and the drain must
	// keep winning on every call until the queue is empty, so a burst of
	// queued messages (e.g. a commit ack plus callback fan-out) all land.
	select {
	case m := <-c.in:
		return m, nil
	default:
	}
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		// done closed while we were waiting: one more drain pass picks up
		// anything that raced in ahead of the close.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, errConnClosed
		}
	}
}

// Close never runs a receiver itself: the closer may be inside one, or hold
// a lock one needs.
func (c *chanConn) Close() error {
	c.once.Do(func() {
		close(c.done)
		go c.end()
		go c.peer.end()
	})
	return nil
}

// ---- TCP binary transport ----

// wireVersion is the one-byte protocol version a client presents at
// connect time; the server rejects mismatches at accept, before any
// framing is attempted, so codec changes fail fast instead of
// desynchronizing mid-stream.
const wireVersion byte = 1

// handshakeTimeout bounds both sides of the version handshake: how long
// the server waits for the version byte of a freshly accepted connection,
// and how long a dialer waits for its handshake write to go through. A
// variable (not a const) so tests can shorten it.
var handshakeTimeout = 5 * time.Second

// readBufKeep caps how much frame buffer a connection keeps pinned
// between messages: the size of a tcpConn's read buffer, and of the
// reassembly buffer a reactor connection returns to its pool. Frames
// above the cap (a commit with many updates, or a page over 64 KiB) use a
// transient buffer the GC reclaims, so one big message does not bloat an
// otherwise idle session forever — at 100k sessions a pinned megabyte each is the whole machine.
const readBufKeep = 64 << 10

// tcpConn frames messages with the binary codec (codec.go) over a
// net.Conn. Sends write through: one frame (Send) or one batch of frames
// (writeFrames) per socket write, with no buffering behind it.
// Frames are decoded in place out of the read buffer.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader // single consumer (Recv contract), so unguarded

	sendMu  sync.Mutex // keeps concurrent senders' frames whole
	sendErr error      // sticky: a failed write may have torn a frame

	spareBuf // what Recv's caller gave back; the next payload that fits lands in it
}

// NewTCPConn wraps an established net.Conn (version handshake already
// done, if any).
func NewTCPConn(c net.Conn) Conn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, readBufKeep)}
}

// Dial connects to a live server at addr and presents the wire version.
func Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	// The handshake write gets the same deadline the server applies to the
	// handshake read: a black-holed server (SYN accepted, nothing drained,
	// send buffer full) must fail the dial so DialRetry's backoff runs,
	// not hang the dialer forever.
	c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := c.Write([]byte{wireVersion}); err != nil {
		c.Close()
		return nil, fmt.Errorf("live: handshake write: %w", err)
	}
	c.SetWriteDeadline(time.Time{})
	return NewTCPConn(c), nil
}

// acceptHandshake validates a freshly accepted connection's version byte,
// which must arrive within timeout.
func acceptHandshake(c net.Conn, timeout time.Duration) error {
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	var v [1]byte
	if _, err := io.ReadFull(c, v[:]); err != nil {
		return fmt.Errorf("live: handshake read: %w", err)
	}
	if v[0] != wireVersion {
		return fmt.Errorf("live: wire version %d, want %d", v[0], wireVersion)
	}
	return nil
}

func (t *tcpConn) Send(m *core.Msg) error {
	bp := encBufPool.Get().(*[]byte)
	buf, err := appendMsgFrame((*bp)[:0], m, nil)
	if err == nil {
		err = t.writeFrames(buf)
	}
	putEncBuf(bp, buf)
	return err
}

// writeFrames writes whole encoded frames through to the socket
// (frameSink).
func (t *tcpConn) writeFrames(b []byte) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if t.sendErr == nil {
		_, t.sendErr = t.c.Write(b)
	}
	return t.sendErr
}

func (t *tcpConn) Recv() (*core.Msg, error) {
	hdr, err := t.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("live: frame length %d exceeds limit", n)
	}
	t.br.Discard(4)
	if int(n) > t.br.Size() {
		// Transient: nothing else refers to it, so Data may stay a view.
		body := make([]byte, n)
		if _, err := io.ReadFull(t.br, body); err != nil {
			return nil, err
		}
		return decodeFrame(body)
	}
	body, err := t.br.Peek(int(n))
	if err != nil {
		return nil, err
	}
	m, err := decodeFrame(body)
	if err == nil && m.Data != nil {
		// Out of the read buffer, which the next frame overwrites.
		view := m.Data
		m.Data = t.take(len(view))
		copy(m.Data, view)
	}
	t.br.Discard(int(n))
	return m, err
}

// idle: see chanConn.idle.
func (t *tcpConn) idle() bool { return t.br.Buffered() == 0 }

// Close closes the socket, which also fails a sender parked in a write to
// a peer that stopped reading. Everything sent before is already with the
// kernel, so there is nothing to flush.
func (t *tcpConn) Close() error { return t.c.Close() }

// RetryPolicy shapes connection retries: capped exponential backoff with
// uniform jitter. The zero value selects the defaults below.
type RetryPolicy struct {
	// MaxAttempts bounds the number of dial attempts; <= 0 means retry
	// forever (reconnects) or the default 5 (DialRetry).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 10ms); each failure
	// doubles it up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// jitterSeq decorrelates the seeds of jitter sources created in the same
// clock tick. An atomic counter, not the global rand: a reconnect storm of
// thousands of clients must not serialize on one mutex while computing the
// very jitter meant to spread them out.
var jitterSeq atomic.Int64

// newJitterRand returns a cheap private source for one retry loop's
// jitter draws. Unsynchronized by construction — each DialRetry or
// reconnect loop owns its own — so a thousand concurrent backoffs never
// contend.
func newJitterRand() *rand.Rand {
	seed := uint64(time.Now().UnixNano()) ^ (uint64(jitterSeq.Add(1)) * 0x9e3779b97f4a7c15)
	return rand.New(rand.NewSource(int64(seed)))
}

// jittered spreads a backoff step over [d/2, d) so that a herd of clients
// reconnecting after one server hiccup does not re-dial in lockstep. The
// caller supplies its own source (newJitterRand) to keep the draw
// lock-free.
func (p RetryPolicy) jittered(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rng.Int63n(half))
}

// delays returns the policy's backoff sequence for one retry loop: each
// call yields the next wait, jittered over [d/2, d), where d starts at
// BaseDelay and doubles up to MaxDelay. The loop owns the sequence and its
// jitter source (newJitterRand).
func (p RetryPolicy) delays() func() time.Duration {
	p = p.withDefaults()
	rng := newJitterRand()
	d := p.BaseDelay
	return func() time.Duration {
		wait := p.jittered(rng, d)
		if d *= 2; d > p.MaxDelay {
			d = p.MaxDelay
		}
		return wait
	}
}

// DialRetry connects to a live server at addr, retrying transient dial
// failures under the given policy (zero value: 5 attempts, 10ms..1s
// backoff).
func DialRetry(addr string, policy RetryPolicy) (Conn, error) {
	attempts := policy.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	next := policy.delays()
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(next())
		}
		conn, err := Dial(addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("live: dial %s: %w", addr, lastErr)
}
