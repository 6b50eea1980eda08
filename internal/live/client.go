package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrAborted is returned by transaction operations when the transaction
// was chosen as a deadlock victim; the caller should retry it.
var ErrAborted = errors.New("live: transaction aborted (deadlock victim)")

// ErrClosed is returned after the connection is gone.
var ErrClosed = errors.New("live: client closed")

// ErrTimeout is returned when a request exceeds the client's
// RequestTimeout. The connection is torn down (the reply may still be in
// flight, so the session's state is no longer trustworthy); with a Redial
// policy the client reconnects as a fresh session. A timed-out Commit has
// an UNKNOWN outcome: it may or may not have become durable.
var ErrTimeout = errors.New("live: request deadline exceeded")

// ErrDisconnected is returned for operations whose transaction was
// aborted locally because the connection to the server was lost. Like
// ErrTimeout, a Commit outcome is unknown. The client itself stays usable
// if a Redial policy is configured.
var ErrDisconnected = errors.New("live: connection lost; transaction aborted locally")

// Client is a live Client DBMS process: it caches pages (or objects under
// OS), holds the protocol state machine, answers callbacks concurrently
// with the running transaction, and exposes a transactional API.
//
// A Client supports one active transaction at a time (like the paper's
// model); open several Clients for concurrency.
type Client struct {
	conn  Conn
	id    core.ClientID
	proto core.Protocol
	opts  ClientOptions
	met   *clientMetrics // nil when no registry configured
	spin  spinWait       // spins only if connected over a pipe (Connect)

	numPages    int
	objsPerPage int
	objSize     int
	cacheCap    int // protocol-units cache capacity (survives reconnects)

	mu           sync.Mutex
	cond         *sync.Cond        // signals reconnect completion / closure
	cs           *core.ClientState // cached bytes ride its cache entries' Payload
	slots        []uint16          // scratch for walking a page's dirty slots
	old          []byte            // Update's copy of the value, lent to fn
	held         []byte            // a buffer a view may point into, recycled by Begin
	aborting     bool              // an abort is dropping entries: hold them all
	posted       *chanConn         // the pipe send queued to under mu; unlock delivers
	req          request           // the one outstanding request
	nextReq      int64
	lastTxn      core.TxnID
	txn          *Txn
	closed       bool
	reconnecting bool
	recvErr      error
	closeCh      chan struct{}

	// aliases caches relocation redirects learned from MRelocated replies:
	// original address -> current placement (guarded by mu). Entries are
	// hints — the server re-redirects if one goes stale — and are dropped
	// on reconnect with the rest of the session state.
	aliases map[core.ObjID]core.ObjID
}

// request is the client's one outstanding request: a transaction handle is
// used from one goroutine and a client runs one transaction at a time, so
// there is never a second. deliver applies the reply under the client lock
// the moment it arrives — atomically with respect to
// callbacks and de-escalation requests, which may only be answered after
// the reply's effects (grants, recorded writes) are installed — and then
// signals done.
type request struct {
	id   int64 // Req of the request in flight; 0 when there is none
	kind reqKind
	obj  core.ObjID // reqRead/reqWrite: the object asked for
	data []byte     // reqWrite: the value to install once granted

	// What the reply said: the value read, or a redirect (retry at moved),
	// or — to a reqUpdate — write permission for an object whose cached copy
	// is stale, which access refetches before anyone reads it.
	val        []byte
	moved      core.ObjID
	redirected bool
	stale      bool

	done chan reqOutcome // cap 1: at most one outcome per request
}

type reqKind uint8

const (
	reqRead reqKind = iota
	reqWrite
	reqUpdate // write permission and the value, for a read-modify-write
	reqCommit
)

type reqOutcome int

const (
	reqOK reqOutcome = iota
	reqAborted
	reqClosed
	reqDisconnected
)

// ClientOptions tunes a client.
type ClientOptions struct {
	// CachePages is the cache capacity in pages (objects x fan-out under
	// OS). Default: 25% of the database, as in the paper.
	CachePages int

	// RequestTimeout bounds each Read/Write/Commit round trip (and the
	// connection handshake). On expiry the operation returns ErrTimeout
	// and the connection is torn down — a stalled or partitioned server
	// can no longer hang the caller. 0 disables deadlines.
	RequestTimeout time.Duration

	// Redial, when set, enables automatic reconnection: after a transport
	// error the client aborts the in-flight transaction locally, re-dials
	// with capped exponential backoff + jitter, and re-registers as a
	// fresh session with a cold cache. Begin blocks while a reconnect is
	// in progress.
	Redial func() (Conn, error)

	// Retry shapes the reconnect backoff (zero value: defaults).
	Retry RetryPolicy

	// Metrics, when set, publishes client-side counters (cache hit/miss,
	// fetches, aborts, reconnects) and the request RTT histogram on the
	// given registry. Nil disables collection at the cost of one nil
	// check per operation.
	Metrics *obs.Registry
}

// Connect performs the handshake over conn and returns a ready client.
func Connect(conn Conn, opts ClientOptions) (*Client, error) {
	hello, err := recvHello(conn, opts.RequestTimeout)
	if err != nil {
		return nil, fmt.Errorf("live: handshake: %w", err)
	}
	c := &Client{
		conn:        conn,
		id:          hello.HelloID,
		proto:       hello.HelloProto,
		opts:        opts,
		numPages:    int(hello.HelloPages),
		objsPerPage: int(hello.HelloObjsPP),
		objSize:     int(hello.HelloObjSize),
		req:         request{done: make(chan reqOutcome, 1)},
		closeCh:     make(chan struct{}),
	}
	if _, pipe := conn.(*chanConn); pipe {
		// Over a pipe the reply to a request, and the client lock after
		// it, are often released by another client's goroutine within
		// microseconds (its commit or callback answer, its delivery to
		// this client), so those waits spin before they park, as
		// lockEngine does. Not over TCP: there the reply arrives through
		// this client's poller goroutine, which needs the P a caller
		// would spin on.
		c.spin = newSpinWait()
	}
	c.cond = sync.NewCond(&c.mu)
	cap := opts.CachePages
	if cap <= 0 {
		cap = c.numPages / 4
	}
	if c.proto == core.OS {
		cap *= c.objsPerPage
	}
	c.cacheCap = cap
	c.cs = c.newState()
	c.met = newClientMetrics(opts.Metrics, c.proto)
	receive(conn, c.deliver)
	return c, nil
}

// recvHello waits for the server's hello, bounded by timeout (0: forever).
func recvHello(conn Conn, timeout time.Duration) (*core.Msg, error) {
	var hello *core.Msg
	var err error
	if timeout <= 0 {
		hello, err = conn.Recv()
	} else {
		type result struct {
			m   *core.Msg
			err error
		}
		ch := make(chan result, 1)
		go func() {
			m, e := conn.Recv()
			ch <- result{m, e}
		}()
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case r := <-ch:
			hello, err = r.m, r.err
		case <-t.C:
			conn.Close()
			return nil, ErrTimeout
		}
	}
	if err != nil {
		return nil, err
	}
	if hello.Kind != core.MHello {
		return nil, fmt.Errorf("unexpected %v", hello.Kind)
	}
	return hello, nil
}

// ID returns the server-assigned client id.
func (c *Client) ID() core.ClientID { return c.id }

// Proto returns the protocol negotiated with the server.
func (c *Client) Proto() core.Protocol { return c.proto }

// ObjSize returns the fixed object size.
func (c *Client) ObjSize() int { return c.objSize }

// Geometry returns (numPages, objsPerPage).
func (c *Client) Geometry() (int, int) { return c.numPages, c.objsPerPage }

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	if !c.closed {
		close(c.closeCh)
	}
	c.failPending()
	c.mu.Unlock()
	return conn.Close()
}

// newState makes the protocol state of a fresh session (cold cache).
func (c *Client) newState() *core.ClientState {
	cs := core.NewClientState(c.id, c.proto, c.cacheCap)
	cs.Cache.OnDrop = func(payload any, pinned bool) {
		buf, _ := payload.([]byte)
		c.release(buf, pinned)
	}
	return cs
}

// release lets go of the buffer of a page (or object) the cache no longer
// holds. One the transaction had pinned, or one an abort drops, may hold a
// view Read handed out, so it waits for the next Begin (in place of the one
// waiting before, left to the collector); any other goes back to the
// transport at once. mu held.
func (c *Client) release(buf []byte, pinned bool) {
	switch {
	case buf == nil:
	case pinned || c.aborting:
		c.held = buf
	default:
		c.recycle(buf)
	}
}

// recycle returns a buffer to the transport, which lands a later fetched
// payload in it (see Conn). No view may point into it: views only point
// into pinned entries, and their buffers wait for the next Begin (release).
// mu held.
func (c *Client) recycle(buf []byte) {
	if r, ok := c.conn.(recycler); ok {
		r.recycle(buf)
	}
}

// take ends the outstanding request, if there is one, and returns where
// its outcome goes (mu held). The send may follow the unlock, so that the
// waiter does not wake into a held lock: done has room (see request).
func (c *Client) take() chan<- reqOutcome {
	if c.req.id == 0 {
		return nil
	}
	c.req.id = 0
	return c.req.done
}

// resolve ends the outstanding request, if any, with out (mu held).
func (c *Client) resolve(out reqOutcome) {
	if done := c.take(); done != nil {
		done <- out
	}
}

// failPending marks the client closed and releases the waiter (mu held).
func (c *Client) failPending() {
	c.closed = true
	c.resolve(reqClosed)
	c.cond.Broadcast()
}

// deliver is the connection's receiver, the one place a server message is
// applied: called once per message in wire order, never concurrently, then
// once with the transport's terminal error (see receive for by whom).
// Callbacks and de-escalations are handled immediately (concurrently with
// the running transaction), and replies are applied in arrival order under
// the client lock, so that a later callback or de-escalation request always
// observes the effects of the grants that preceded it on the wire.
//
// Over a pipe it runs on whichever goroutine shipped the message (inside
// session.ship: this client's own, deep in its request's delivery, or
// another client's or a background loop's), so it must never wait for that
// goroutine: it takes the client lock, which callers hold only for local
// work and for queueing a message to the server (send), and it delivers its
// own answers — callback acks, de-escalation replies — only once it has
// released that lock (unlock). m is lent (see Conn): only m.Data is kept.
//
// On the terminal error it either fails the client permanently or — with a
// Redial policy — reconnects and receives from the new session. That call
// may sleep through a back-off, which is why a pipe makes it on a goroutine
// of its own.
func (c *Client) deliver(m *core.Msg, err error) {
	if err != nil {
		if nc := c.reconnect(err); nc != nil {
			receive(nc, c.deliver)
		}
		return
	}
	c.lock()
	switch m.Kind {
	case core.MCallback:
		reply, _ := c.cs.HandleCallback(m)
		c.send(reply)
		c.unlock()
	case core.MDeescReq:
		c.send(c.cs.HandleDeescReq(m))
		c.unlock()
	case core.MAbortYou:
		if m.Txn != c.cs.Txn {
			c.mu.Unlock() // verdict on a transaction that already ended
			return
		}
		// Roll the transaction back right here so subsequent messages
		// see consistent state; the waiter just learns the outcome.
		c.abort()
		c.txn = nil
		// The verdict ends the transaction, so it resolves whatever
		// request the transaction has in flight — not just the one the
		// server named in Req: a reply to an unresolved request would
		// otherwise be applied to a finished transaction.
		done := c.take()
		c.unlock()
		if done != nil {
			done <- reqAborted
		}
	default:
		var done chan<- reqOutcome
		if c.req.id != 0 && c.req.id == m.Req {
			c.applyPending(m)
			done = c.take()
		}
		c.unlock()
		if done != nil {
			done <- reqOK
		}
	}
}

// reconnect handles a transport error from conn: without a Redial policy
// it fails the client permanently; with one it aborts the in-flight
// transaction locally, then re-dials with capped exponential backoff and
// jitter until it re-registers as a fresh session (cold cache, new client
// id). It returns the new connection, or nil if the client is done.
func (c *Client) reconnect(cause error) Conn {
	c.mu.Lock()
	if c.closed || c.opts.Redial == nil {
		c.recvErr = cause
		c.failPending()
		c.mu.Unlock()
		return nil
	}
	c.reconnecting = true
	// Abort the in-flight transaction locally: the server will abort its
	// half when it notices the dead session, and our session state is
	// unusable anyway.
	if c.txn != nil {
		c.txn.done = true
		c.txn.failed = ErrDisconnected
		c.txn = nil
	}
	c.resolve(reqDisconnected)
	old := c.conn
	c.mu.Unlock()
	old.Close()

	attempts := c.opts.Retry.MaxAttempts
	next := c.opts.Retry.delays()
	for attempt := 1; attempts <= 0 || attempt <= attempts; attempt++ {
		t := time.NewTimer(next())
		select {
		case <-c.closeCh:
			t.Stop()
			return nil
		case <-t.C:
		}
		conn, err := c.opts.Redial()
		if err != nil {
			continue
		}
		hello, err := recvHello(conn, c.opts.RequestTimeout)
		if err != nil {
			conn.Close()
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		// Fresh session: new id, cold cache, clean protocol state.
		c.conn = conn
		c.id = hello.HelloID
		c.cs = c.newState()
		c.aliases = nil
		c.reconnecting = false
		c.cond.Broadcast()
		c.mu.Unlock()
		return conn
	}
	c.mu.Lock()
	c.recvErr = cause
	c.failPending()
	c.mu.Unlock()
	return nil
}

// send transmits a message with drop notices attached. Callers hold c.mu,
// which also serializes the wire order with the state mutations that
// produced the message. Over a pipe it only queues the message (post): the
// server's receiver runs wherever the message is delivered and may call
// this client's receiver back, which takes c.mu — so the caller releases
// c.mu with unlock, which delivers what was queued. The transport error is
// returned for the paths that wait on the message's effect (roundTrip) or
// complete purely locally (read-only commit); answers sent from deliver
// leave a dead connection to its terminal call.
func (c *Client) send(m *core.Msg) error {
	m.DroppedPages, m.DroppedObjs = c.cs.Cache.TakeDropped()
	p, ok := c.conn.(*chanConn)
	if !ok {
		return c.conn.Send(m)
	}
	if err := p.post(m); err != nil {
		return err
	}
	c.posted = p
	return nil
}

// lock takes c.mu where its holder is often another client's goroutine
// delivering to this client: in deliver, and as a request's reply is taken
// up. Over a pipe it spins before it parks (Connect).
func (c *Client) lock() {
	if !c.spin.spin(c.mu.TryLock) {
		c.mu.Lock()
	}
}

// unlock releases c.mu and then delivers what send queued under it — on a
// pipe, very often the whole round trip, on this goroutine.
func (c *Client) unlock() {
	p := c.posted
	c.posted = nil
	c.mu.Unlock()
	if p != nil {
		p.flush()
	}
}

// Begin starts a transaction. It blocks until any previous transaction on
// this client finishes.
func (c *Client) Begin() (*Txn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.reconnecting && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return nil, ErrClosed
	}
	if c.txn != nil {
		return nil, errors.New("live: transaction already active on this client")
	}
	if c.held != nil { // the previous transaction's views are dead
		c.recycle(c.held)
		c.held = nil
	}
	id := nextTxnID(time.Now().UnixNano(), c.id, c.lastTxn)
	c.lastTxn = id
	c.cs.Begin(id)
	c.txn = &Txn{c: c}
	return c.txn, nil
}

// nextTxnID builds a transaction id that is unique across the server's
// sessions and roughly start-ordered (the deadlock victim policy aborts
// the youngest): the nanosecond timestamp with its low 16 bits replaced
// by the session id, bumped past the session's previous id. Session ids
// only ever grow (reconnects take fresh ones), so 8 bits were not enough:
// sessions 1 and 257 collided. Ids stay start-ordered to 65 µs, and unique
// while fewer than 65536 session ids separate two live sessions.
func nextTxnID(nowNanos int64, session core.ClientID, last core.TxnID) core.TxnID {
	const sessionMask = 0xffff
	id := core.TxnID(nowNanos)&^sessionMask | core.TxnID(session)&sessionMask
	if id <= last {
		id = last + sessionMask + 1
	}
	return id
}

// Txn is one transaction's handle. Its methods must be called from a
// single goroutine.
type Txn struct {
	c      *Client
	done   bool
	failed error // terminal error (disconnect/timeout) to surface on reuse

	// relocs rides on the commit of a reclustering migration (set only by
	// the in-process planner; the server strips it from anyone else): the
	// relocation entries the commit installs atomically with its images.
	relocs []core.RelocEntry
}

// roundTrip sends m and waits for its reply, which deliver applies under
// c.mu the moment it arrives (applyPending; what the reply said is left in
// c.req). The caller must hold c.mu; the lock is released — which delivers
// m, over a pipe on this goroutine, and often the reply with it — while
// waiting, and reacquired before returning.
//
// With a RequestTimeout configured the wait is bounded: on expiry the
// connection is torn down (triggering reconnect, if configured) and the
// caller gets ErrTimeout once the teardown has released the waiter.
func (c *Client) roundTrip(m *core.Msg, kind reqKind, obj core.ObjID, data []byte) error {
	if c.closed {
		return ErrClosed
	}
	c.nextReq++
	m.Req = c.nextReq
	m.Txn = c.cs.Txn
	m.From = c.id
	r := &c.req
	r.id, r.kind, r.obj, r.data = m.Req, kind, obj, data
	r.val, r.redirected, r.stale = nil, false, false
	conn := c.conn
	var start time.Time
	if c.met != nil {
		start = time.Now()
	}
	if err := c.send(m); err != nil {
		// Sends write through, so a dead connection says so here: end the
		// session now instead of parking on a reply that cannot come and
		// leaving the reader to notice a half-dead socket.
		r.id = 0
		conn.Close()
		if c.opts.Redial == nil {
			c.recvErr = err
			c.failPending()
			return ErrClosed
		}
		c.abandonSession(conn, ErrDisconnected)
		return ErrDisconnected
	}
	c.unlock()
	out, spun := spinRecv(c.spin, r.done)
	timedOut := false
	switch {
	case spun:
	case c.opts.RequestTimeout > 0:
		t := time.NewTimer(c.opts.RequestTimeout)
		select {
		case out = <-r.done:
			t.Stop()
		case <-t.C:
			// Kill the (stalled) connection; its terminal call fails or
			// replaces the session, releasing the waiter.
			timedOut = true
			conn.Close()
			out = <-r.done
		}
	default:
		out = <-r.done
	}
	if c.met != nil {
		c.met.rtt(time.Since(start))
	}
	c.lock()
	switch {
	case timedOut:
		// We tore the connection down, but the reply may have raced in
		// first (transports drain buffered messages on close), in which
		// case the waiter was released with reqOK and the terminal call
		// has not happened yet. The session is doomed either
		// way.
		c.abandonSession(conn, ErrTimeout)
		return ErrTimeout
	case out == reqAborted:
		return ErrAborted
	case out == reqClosed:
		return ErrClosed
	case out == reqDisconnected:
		return ErrDisconnected
	}
	return nil
}

// abandonSession gives up on the session over conn ahead of its terminal
// call: park new Begins behind the reconnect and finish the active
// transaction now with cause, so the client is reusable the moment the
// terminal call replaces (or permanently fails) the session. A no-op if
// that already swapped in a fresh connection. mu held.
func (c *Client) abandonSession(conn Conn, cause error) {
	if c.conn == conn && !c.closed {
		c.reconnecting = true
		if c.txn != nil {
			c.txn.done = true
			c.txn.failed = cause
			c.txn = nil
		}
	}
}

// applyPending applies the reply to the outstanding request. It runs in
// deliver under c.mu.
func (c *Client) applyPending(rep *core.Msg) {
	r := &c.req
	switch {
	case r.kind == reqCommit:
		if rep.Kind != core.MCommitAck {
			panic(fmt.Sprintf("live: unexpected commit reply %v", rep.Kind))
		}
		// Discharge deferred callbacks on the receive path so the acks
		// stay ordered with the transaction's end.
		for _, ack := range c.cs.OnCommitAck() {
			ack := ack
			c.send(&ack)
		}
	case rep.Kind == core.MRelocated:
		// A redirect, before applyReply would reject the unexpected kind.
		r.moved, r.redirected = rep.Objs[0], true
	default:
		// Install the data and complete the access before any later
		// callback can touch the object.
		c.applyReply(rep)
		if r.kind == reqUpdate && c.cs.NeedsRefetch(r.obj) {
			r.stale = true
			return
		}
		r.val = c.complete(r.kind, r.obj, r.data)
	}
}

// complete performs an access that the protocol state now allows locally:
// it records the read, which pins the page until the transaction ends, and
// returns a view of the value (reqRead, and reqUpdate's read half); or it
// records the write and installs data in the cache.
func (c *Client) complete(kind reqKind, o core.ObjID, data []byte) []byte {
	if kind == reqWrite {
		c.cs.RecordWrite(o)
		c.setObjBytes(o, data)
		return nil
	}
	c.cs.RecordRead(o)
	return c.objView(o)
}

func (t *Txn) check() error {
	if t.failed != nil {
		return t.failed
	}
	if t.done {
		return errors.New("live: transaction finished")
	}
	if t.c.closed {
		return ErrClosed
	}
	if t.c.txn != t {
		// A deadlock verdict ended the transaction between two calls.
		t.done = true
		return ErrAborted
	}
	return nil
}

// finishIfAborted marks the transaction done on a terminal outcome.
func (t *Txn) finishIfAborted(err error) error {
	switch {
	case errors.Is(err, ErrAborted) || errors.Is(err, ErrClosed):
		t.done = true
	case errors.Is(err, ErrTimeout) || errors.Is(err, ErrDisconnected):
		t.done = true
		t.failed = err
	}
	return err
}

func (c *Client) checkObjID(o core.ObjID) error {
	if int(o.Page) < 0 || int(o.Page) >= c.numPages || int(o.Slot) >= c.objsPerPage {
		return fmt.Errorf("live: object %v out of range", o)
	}
	return nil
}

// resolveAlias maps a user address through the relocation hints (mu held).
func (c *Client) resolveAlias(o core.ObjID) core.ObjID {
	if to, ok := c.aliases[o]; ok {
		return to
	}
	return o
}

// learnAlias records that the object the caller knows as orig currently
// lives at to (mu held). Keyed by the original address, so chains collapse
// to one hop no matter how many times the object moves.
func (c *Client) learnAlias(orig, to core.ObjID) {
	if c.aliases == nil {
		c.aliases = make(map[core.ObjID]core.ObjID)
	}
	c.aliases[orig] = to
}

// Read returns the current value of object o under this transaction. The
// value is a view into the client's cache, not a copy: it holds its bytes
// until the transaction ends (a Write of o by this transaction excepted),
// its capacity is its length, and the caller must not modify it. Copy it
// to keep it longer. If o was migrated by the reclusterer the server
// answers with a redirect; the client follows it (caching the alias)
// transparently.
func (t *Txn) Read(o core.ObjID) ([]byte, error) {
	return t.access(reqRead, o, nil)
}

// Write installs a new value for object o (at most ObjSize bytes; shorter
// values are zero-padded). Writes replace the whole object, so no prior
// read is required — a blind write under the object's write lock is
// serializable even if the local copy was stale. Redirects are followed
// like Read's.
func (t *Txn) Write(o core.ObjID, data []byte) error {
	_, err := t.access(reqWrite, o, data)
	return err
}

// access is Read, Write and Update's read half: complete the access
// locally if the protocol state allows it, otherwise ask the server,
// following redirects until it does.
func (t *Txn) access(kind reqKind, o core.ObjID, data []byte) ([]byte, error) {
	c := t.c
	c.mu.Lock()
	defer c.unlock()
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := c.checkObjID(o); err != nil {
		return nil, err
	}
	if len(data) > c.objSize {
		return nil, fmt.Errorf("live: value %d bytes exceeds object size %d", len(data), c.objSize)
	}
	target := c.resolveAlias(o)
	for {
		var m *core.Msg
		ask := kind
		if kind == reqRead {
			m = c.cs.NeedForRead(target)
		} else {
			c.cs.StartWrite(target)
			m = c.cs.NeedForWrite(target)
			if m == nil && kind == reqUpdate && c.cs.NeedsRefetch(target) {
				// Write permission without a current copy (see
				// core.ClientState.OnReply): fetch it before reading.
				m, ask = c.cs.NeedForRead(target), reqRead
			}
		}
		if m == nil {
			c.met.hit()
			return c.complete(kind, target, data), nil
		}
		c.met.miss()
		if err := c.roundTrip(m, ask, target, data); err != nil {
			return nil, t.finishIfAborted(err)
		}
		r := &c.req
		switch {
		case r.redirected:
			c.learnAlias(o, r.moved)
			target = r.moved
		case !r.stale:
			return r.val, nil
		}
	}
}

// Update is a read-modify-write: it reads o, applies fn, and writes the
// result. An object the transaction may not yet write costs one request —
// write permission with the value, as the simulator asks for it — not a
// read and then a write; only a grant that finds the cached copy stale
// (page-granularity copy tracking, PS-OA and PS-AA) adds a fetch. The read
// is recorded before fn runs, so the page stays cached meanwhile, and the
// write is then local. fn is lent a copy of the value, which it may modify
// and return; the copy is valid only for the call.
func (t *Txn) Update(o core.ObjID, fn func(old []byte) []byte) error {
	v, err := t.access(reqUpdate, o, nil)
	if err != nil {
		return err
	}
	c := t.c
	c.old = append(c.old[:0], v...)
	return t.Write(o, fn(c.old))
}

// Commit makes the transaction's updates durable and visible.
func (t *Txn) Commit() error {
	c := t.c
	c.mu.Lock()
	defer c.unlock()
	if err := t.check(); err != nil {
		return err
	}
	updates := c.collectUpdates()
	if len(updates) > 0 {
		m := c.cs.BuildCommit()
		m.Updates = updates
		m.Relocs = t.relocs
		if err := c.roundTrip(m, reqCommit, core.ObjID{}, nil); err != nil {
			return t.finishIfAborted(err)
		}
		c.met.commit()
		t.done = true
		c.txn = nil
		return nil
	}
	// Read-only: commit locally (cached copies are read permission).
	// The deferred callback acks double as a liveness probe: if the
	// server already tore this session down (e.g. deposed us for a stale
	// callback), our read permissions were revoked mid-transaction and
	// the commit must not report success. Without this check the outcome
	// would depend on whether the connection's terminal call came
	// first.
	var sendErr error
	for _, ack := range c.cs.OnCommitAck() {
		ack := ack
		if err := c.send(&ack); err != nil {
			sendErr = err
		}
	}
	if sendErr != nil && c.opts.Redial == nil && !c.closed {
		c.recvErr = sendErr
		c.failPending()
	}
	if c.closed {
		t.done = true
		c.txn = nil
		return ErrClosed
	}
	c.met.commit()
	t.done = true
	c.txn = nil
	return nil
}

// Abort voluntarily rolls the transaction back.
func (t *Txn) Abort() error {
	c := t.c
	c.mu.Lock()
	defer c.unlock()
	if t.done || c.txn != t {
		return nil
	}
	c.abort()
	t.done = true
	c.txn = nil
	return nil
}

// abort rolls the protocol state of the active transaction back and sends
// the abort. Every buffer it drops waits for the next Begin, pinned or not:
// core unpins the survivors before it discharges deferred callbacks, whose
// purges reach pages the transaction read, and a reply still in flight
// when a deadlock verdict lands may fill the connection's spare. mu held.
func (c *Client) abort() {
	c.aborting = true
	msgs := c.cs.Abort()
	c.aborting = false
	for i := range msgs {
		c.send(&msgs[i])
	}
}

// collectUpdates builds the afterimage map for the commit message, nil for
// a read-only transaction. The images are copies (the message owns them
// once sent; the cached bytes keep changing), carved out of one buffer per
// commit.
func (c *Client) collectUpdates() map[core.ObjID][]byte {
	cache := c.cs.Cache
	if c.proto == core.OS {
		objs := cache.DirtyObjs()
		if len(objs) == 0 {
			return nil
		}
		updates := make(map[core.ObjID][]byte, len(objs))
		for _, o := range objs {
			updates[o] = cloneBytes(c.objValue(o))
		}
		return updates
	}
	pages := cache.DirtyPages()
	if len(pages) == 0 {
		return nil
	}
	n := 0
	for _, p := range pages {
		n += cache.DirtyObjCount(p)
	}
	updates := make(map[core.ObjID][]byte, n)
	images := make([]byte, 0, n*c.objSize)
	for _, p := range pages {
		cp := cache.Page(p)
		buf := pageBytes(cp)
		c.slots = cp.DirtySlots(c.slots[:0])
		for _, slot := range c.slots {
			at := len(images)
			images = append(images, buf[int(slot)*c.objSize:][:c.objSize]...)
			updates[core.ObjID{Page: p, Slot: slot}] = images[at:len(images):len(images)]
		}
	}
	return updates
}

// applyReply installs a data/grant reply, merging the incoming page with
// local uncommitted updates. The reply's Data is adopted, not copied: a
// received message belongs to the receiver (see Conn).
func (c *Client) applyReply(m *core.Msg) {
	switch m.Kind {
	case core.MPageData:
		var old []byte
		if cp := c.cs.Cache.Page(m.Page); cp != nil {
			old = pageBytes(cp)
		}
		c.cs.OnReply(m)
		cp := c.cs.Cache.Page(m.Page)
		if old != nil {
			// Carry the locally dirty objects over into the fresh copy.
			c.slots = cp.DirtySlots(c.slots[:0])
			for _, slot := range c.slots {
				off := int(slot) * c.objSize
				copy(m.Data[off:off+c.objSize], old[off:])
			}
			// A view may point into the old copy of a page the
			// transaction has touched.
			c.release(old, cp.Pinned())
		}
		cp.Payload = m.Data
	case core.MObjData:
		c.cs.OnReply(m)
		c.cs.Cache.Obj(m.Obj).Payload = m.Data
	case core.MGrant:
		c.cs.OnReply(m)
	default:
		panic(fmt.Sprintf("live: unexpected reply %v", m.Kind))
	}
}

// pageBytes returns a cached page's buffer.
func pageBytes(cp *core.CachedPage) []byte {
	buf, _ := cp.Payload.([]byte)
	if buf == nil {
		panic("live: cached page has no bytes")
	}
	return buf
}

// objSlice returns the in-place byte slice of a page-cached object, capped
// so that an append cannot run into the next object.
func (c *Client) objSlice(o core.ObjID) []byte {
	off := int(o.Slot) * c.objSize
	return pageBytes(c.cs.Cache.Page(o.Page))[off : off+c.objSize : off+c.objSize]
}

// objValue returns an OS-cached object's bytes, in place and capped.
func (c *Client) objValue(o core.ObjID) []byte {
	buf, _ := c.cs.Cache.Obj(o).Payload.([]byte)
	return buf[:len(buf):len(buf)]
}

// objView returns object o's current bytes in place (see Txn.Read).
func (c *Client) objView(o core.ObjID) []byte {
	if c.proto == core.OS {
		return c.objValue(o)
	}
	return c.objSlice(o)
}

// cloneBytes is copyOf with append([]byte(nil), b...)'s result for an
// empty b: nil.
func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return copyOf(b)
}

// setObjBytes installs new object bytes in the cache (zero-padded).
func (c *Client) setObjBytes(o core.ObjID, data []byte) {
	if c.proto == core.OS {
		buf := make([]byte, c.objSize)
		copy(buf, data)
		c.cs.Cache.Obj(o).Payload = buf
		return
	}
	slot := c.objSlice(o)
	clear(slot[copy(slot, data):])
}
