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
// else holds (Store.ReadPage and decodeMsg return fresh copies; the
// client copies afterimages out of its cache into Updates).
type Conn interface {
	// Send transmits one message. Safe for concurrent use. Sends may be
	// buffered; the transport guarantees timely delivery without an
	// explicit flush.
	Send(m *core.Msg) error
	// Recv blocks for the next message. Single consumer.
	Recv() (*core.Msg, error)
	// Close tears the connection down; pending Recv returns an error.
	Close() error
}

// flusher is the optional fast-path a buffered transport exposes: callers
// that know a batch boundary (e.g. the server's session pump after
// draining its outbox) can force the coalesced bytes out immediately
// instead of waiting for the idle flush.
type flusher interface {
	Flush() error
}

// asyncConn is the push-mode transport contract every server session
// runs on. Instead of the owner parking in Recv, it installs a receiver
// callback (invoked once per inbound message in wire order, never
// concurrently, then once with a terminal error) and a pump callback that
// drains the owner's outbox into Send/Flush. Start begins delivery; no
// receiver call precedes it. Kick schedules the pump on the transport's
// driver; it is non-blocking and safe to call under any lock, so the
// server can request output from inside the engine without doing wire
// work there. Two drivers implement it: the reactor's rconn (event
// loops) and blockingConn (two goroutines over any blocking Conn).
type asyncConn interface {
	Conn
	flusher
	SetHandlers(recv func(m *core.Msg, err error), pump func())
	Start()
	Kick()
}

// blockingConn drives a session over a blocking Conn (an in-process pipe
// or a tcpConn): one goroutine parks in Recv and feeds the receiver, a
// second turns kicks into pump calls. Both are counted on wg and exit
// once the connection is closed.
type blockingConn struct {
	Conn
	wg   *sync.WaitGroup
	recv func(*core.Msg, error)
	pump func()

	kick     chan struct{} // cap 1: a pending kick covers every later one
	done     chan struct{}
	doneOnce sync.Once
}

func newBlockingConn(c Conn, wg *sync.WaitGroup) *blockingConn {
	return &blockingConn{Conn: c, wg: wg, kick: make(chan struct{}, 1), done: make(chan struct{})}
}

func (b *blockingConn) SetHandlers(recv func(*core.Msg, error), pump func()) {
	b.recv, b.pump = recv, pump
}

func (b *blockingConn) Start() {
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		for {
			m, err := b.Recv()
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

func (b *blockingConn) Flush() error {
	if f, ok := b.Conn.(flusher); ok {
		return f.Flush()
	}
	return nil
}

func (b *blockingConn) Close() error {
	b.doneOnce.Do(func() { close(b.done) })
	return b.Conn.Close()
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

// closeFlushTimeout bounds how long Close waits to flush buffered frames
// to a peer that is not reading.
const closeFlushTimeout = time.Second

// tcpConn frames messages with the binary codec (codec.go) over a
// net.Conn. Writes coalesce in a bufio.Writer and are flushed by a
// dedicated goroutine when the sender goes idle, so back-to-back sends
// (callback fan-outs, grant bursts) share syscalls.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader

	// readBuf is the reusable frame buffer and hdrIn the reusable header
	// scratch (a local array would escape through io.ReadFull and cost an
	// allocation per message); decodeMsg copies everything it keeps, so
	// neither buffer escapes. Single consumer (Recv contract), so both are
	// unguarded.
	readBuf []byte
	hdrIn   [4]byte

	sendMu  sync.Mutex
	bw      *bufio.Writer
	hdrOut  [4]byte
	sendErr error // sticky: first write/flush failure poisons the conn

	flushWake chan struct{} // cap 1: signal "bytes are buffered"
	closeOnce sync.Once
	done      chan struct{}
}

// NewTCPConn wraps an established net.Conn (version handshake already
// done, if any).
func NewTCPConn(c net.Conn) Conn {
	t := &tcpConn{
		c:         c,
		br:        bufio.NewReaderSize(c, 64<<10),
		bw:        bufio.NewWriterSize(c, 64<<10),
		flushWake: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	go t.flushLoop()
	return t
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
	body := appendMsg((*bp)[:0], m)
	var err error
	if len(body) > maxFrame {
		err = fmt.Errorf("live: message exceeds frame limit (%d bytes)", len(body))
	} else {
		t.sendMu.Lock()
		if err = t.sendErr; err == nil {
			binary.LittleEndian.PutUint32(t.hdrOut[:], uint32(len(body)))
			if _, err = t.bw.Write(t.hdrOut[:]); err == nil {
				_, err = t.bw.Write(body)
			}
			if err != nil {
				t.sendErr = err
			}
		}
		t.sendMu.Unlock()
	}
	*bp = body
	encBufPool.Put(bp)
	if err != nil {
		return err
	}
	// Wake the idle flusher; a pending wake already covers us.
	select {
	case t.flushWake <- struct{}{}:
	default:
	}
	return nil
}

// Flush forces buffered frames out now (batch boundary hint).
func (t *tcpConn) Flush() error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if t.sendErr != nil {
		return t.sendErr
	}
	if err := t.bw.Flush(); err != nil {
		t.sendErr = err
		return err
	}
	return nil
}

// flushLoop writes buffered frames whenever the senders go idle. While a
// flush's syscall is in flight, further Sends append to the buffer behind
// sendMu; the next wake flushes them all at once — that lag is the write
// coalescing.
func (t *tcpConn) flushLoop() {
	for {
		select {
		case <-t.flushWake:
		case <-t.done:
			return
		}
		t.sendMu.Lock()
		if t.sendErr == nil {
			if err := t.bw.Flush(); err != nil {
				t.sendErr = err
			}
		}
		t.sendMu.Unlock()
	}
}

// readBufKeep caps how much frame buffer a connection keeps pinned
// between messages. Frames above the cap (a large VStore fetch, a page
// burst) use a transient buffer the GC reclaims, so one big message does
// not bloat an otherwise idle session forever — at 100k sessions a pinned
// megabyte each is the whole machine.
const readBufKeep = 64 << 10

func (t *tcpConn) Recv() (*core.Msg, error) {
	if _, err := io.ReadFull(t.br, t.hdrIn[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(t.hdrIn[:])
	if n > maxFrame {
		return nil, fmt.Errorf("live: frame length %d exceeds limit", n)
	}
	var buf []byte
	if n > readBufKeep {
		buf = make([]byte, n) // transient: decodeMsg copies what it keeps
	} else {
		if cap(t.readBuf) < int(n) {
			t.readBuf = make([]byte, n)
		}
		buf = t.readBuf[:n]
	}
	if _, err := io.ReadFull(t.br, buf); err != nil {
		return nil, err
	}
	return decodeMsg(buf)
}

func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	// Push out anything still buffered (e.g. a final abort notice) before
	// tearing the socket down — but not forever: if the peer stopped
	// reading, a sender may be parked in a socket write holding sendMu, and
	// our own flush would park the same way. The deadline fails both.
	t.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	t.sendMu.Lock()
	if t.sendErr == nil {
		t.bw.Flush()
	}
	t.sendMu.Unlock()
	return t.c.Close()
}

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
