package live

import (
	"bufio"
	"encoding/binary"
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
// id slices) pass to the transport on Send and to the caller on Recv.
// The sender must not touch them afterwards — the in-process pipe hands
// the very same Msg to the peer — and the receiver may keep or modify
// them without copying: the client adopts a page reply's Data as its
// cached page. Whoever fills a message therefore puts in bytes nobody
// else holds (Store.ReadPage and Recv hand out buffers nothing else
// refers to; the client copies afterimages out of its cache into
// Updates).
//
// Recycling: a transport may offer to take a Data buffer back
// (tcpConn.recycle) and land a later payload in it. Whoever returns one guarantees that no
// reference to it survives. The client returns a page's buffer when its
// cache drops the page and keeps that promise by never letting a cached
// byte escape: Txn.Read copies values out, Commit copies afterimages.
type Conn interface {
	// Send transmits one message. Safe for concurrent use. When it
	// returns nil the message is on its way: queued for the in-process
	// peer, or written through to the socket.
	Send(m *core.Msg) error
	// Recv blocks for the next message. Single consumer.
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
// terminal receiver call. Two drivers implement it: the reactor's rconn
// (event loops) and blockingConn (two goroutines over any blocking Conn).
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

// blockingConn drives a session over a blocking Conn (an in-process pipe
// or a tcpConn): one goroutine parks in Recv and feeds the receiver, a
// second turns kicks into pump calls. Both are counted on wg and exit
// once the connection is closed.
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
		for {
			m, err := b.c.Recv()
			b.recv(m, err)
			if err != nil {
				return
			}
		}
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

// ---- In-process transport ----

// chanConn is one endpoint of an in-process connection.
type chanConn struct {
	in   chan *core.Msg
	out  chan *core.Msg
	once *sync.Once // shared: either side's Close tears down both
	done chan struct{}
}

// Pipe creates a connected in-process transport pair (client end, server
// end). The buffer keeps senders from blocking under normal operation.
func Pipe() (Conn, Conn) {
	a2b := make(chan *core.Msg, 1024)
	b2a := make(chan *core.Msg, 1024)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &chanConn{in: b2a, out: a2b, done: done, once: once}
	b := &chanConn{in: a2b, out: b2a, done: done, once: once}
	return a, b
}

func (c *chanConn) Send(m *core.Msg) error {
	// Check done first: a two-way select picks randomly when the buffer
	// has room AND the pipe is closed, which would make Send on a dead
	// connection succeed nondeterministically.
	select {
	case <-c.done:
		return fmt.Errorf("live: connection closed")
	default:
	}
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return fmt.Errorf("live: connection closed")
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
			return nil, fmt.Errorf("live: connection closed")
		}
	}
}

// idle reports whether no further inbound message is waiting. Only the
// receiver may ask (it is the single consumer), and only when the answer
// is yes may a server session's receiver spend its own time on output:
// see session.flushOwn.
func (c *chanConn) idle() bool { return len(c.in) == 0 }

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.done) })
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
// above the cap (a large VStore fetch) use a transient buffer the GC
// reclaims, so one big message does not bloat an otherwise idle session
// forever — at 100k sessions a pinned megabyte each is the whole machine.
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

	spareMu sync.Mutex
	spare   []byte // recycled buffer awaiting the next payload that fits
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
		m.Data = t.own(m.Data)
	}
	t.br.Discard(int(n))
	return m, err
}

// own copies a payload out of the read buffer, into the recycled buffer
// when that fits without wasting more than half of it.
func (t *tcpConn) own(view []byte) []byte {
	n := len(view)
	t.spareMu.Lock()
	buf := t.spare
	if cap(buf) >= n && cap(buf)/2 <= n {
		t.spare = nil
	} else {
		buf = nil
	}
	t.spareMu.Unlock()
	if buf == nil {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	copy(buf, view)
	return buf
}

// recycle takes back a buffer Recv handed out as some message's Data, now
// that nothing refers to it (see Conn).
func (t *tcpConn) recycle(buf []byte) {
	t.spareMu.Lock()
	t.spare = buf
	t.spareMu.Unlock()
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

// DialRetry connects to a live server at addr, retrying transient dial
// failures under the given policy (zero value: 5 attempts, 10ms..1s
// backoff).
func DialRetry(addr string, policy RetryPolicy) (Conn, error) {
	policy = policy.withDefaults()
	attempts := policy.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	delay := policy.BaseDelay
	rng := newJitterRand()
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(policy.jittered(rng, delay))
			if delay *= 2; delay > policy.MaxDelay {
				delay = policy.MaxDelay
			}
		}
		conn, err := Dial(addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("live: dial %s: %w", addr, lastErr)
}
