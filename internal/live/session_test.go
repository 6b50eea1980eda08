package live

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// sessionTransports are the three ways a session is driven. The contract
// below must hold identically over each: they share one session machine
// (session.go) and differ only in the asyncConn driver underneath.
var sessionTransports = []struct {
	name      string
	transport string // "" = in-process pipe, no listener
}{
	{"pipe", ""},
	{"tcp", TransportGoroutine},
	{"reactor", TransportReactor},
}

// sessionHarness opens a server for one transport and hands out raw
// client-side connections to fresh sessions on it.
type sessionHarness struct {
	srv  *Server
	addr string
}

func newSessionHarness(t *testing.T, transport string, opts ServerOptions) *sessionHarness {
	t.Helper()
	opts.Proto, opts.SyncWAL = core.PSAA, false
	if opts.PageSize == 0 {
		opts.PageSize, opts.ObjsPerPage, opts.NumPages = 256, 4, 64
	}
	if transport == "" {
		srv, err := openServer(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return &sessionHarness{srv: srv}
	}
	opts.Transport = transport
	srv, addr := startTransportServer(t, opts)
	if srv.Transport() != transport {
		srv.Close()
		t.Skipf("%s transport unavailable on this platform (fell back to %q)", transport, srv.Transport())
	}
	return &sessionHarness{srv: srv, addr: addr}
}

// dial opens a new session and returns the raw client end, before its
// hello has been read.
func (h *sessionHarness) dial(t *testing.T) Conn {
	t.Helper()
	if h.addr == "" {
		cEnd, sEnd := Pipe()
		if _, err := h.srv.Attach(sEnd); err != nil {
			t.Fatal(err)
		}
		return cEnd
	}
	conn, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func (h *sessionHarness) client(t *testing.T) *Client {
	t.Helper()
	cl, err := Connect(h.dial(t), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// rawSession dials, consumes the hello, and returns the client end with
// the server-side session it is attached to.
func (h *sessionHarness) rawSession(t *testing.T) (Conn, *session) {
	t.Helper()
	conn := h.dial(t)
	hello := recvWithin(t, conn, 5*time.Second)
	if hello.Kind != core.MHello {
		t.Fatalf("first frame is %v, want hello", hello.Kind)
	}
	sess := h.srv.sessionOf(hello.HelloID)
	if sess == nil {
		t.Fatalf("no session for hello id %d", hello.HelloID)
	}
	return conn, sess
}

// recvResult carries one Recv outcome across a goroutine.
type recvResult struct {
	m   *core.Msg
	err error
}

func recvAsync(conn Conn) <-chan recvResult {
	ch := make(chan recvResult, 1)
	go func() {
		m, err := conn.Recv()
		ch <- recvResult{m, err}
	}()
	return ch
}

func recvWithin(t *testing.T, conn Conn, d time.Duration) *core.Msg {
	t.Helper()
	select {
	case r := <-recvAsync(conn):
		if r.err != nil {
			t.Fatalf("recv: %v", r.err)
		}
		return r.m
	case <-time.After(d):
		t.Fatalf("no message within %v", d)
		return nil
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// quiesced reports whether the engine holds no transaction, lock, queue
// or callback round.
func quiesced(srv *Server) bool {
	srv.engMu.Lock()
	defer srv.engMu.Unlock()
	return srv.eng.Quiesced()
}

func readReq(page int, req int64) *core.Msg {
	return &core.Msg{Kind: core.MReadReq, Txn: 0x515100, Req: req,
		Obj: o(core.PageID(page), 0), Page: core.PageID(page)}
}

// TestSessionContract runs the session contract over every transport.
func TestSessionContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, transport string)
	}{
		{"HelloFirst", sessionHelloFirst},
		{"CommitVisibleAcrossSessions", sessionCommitVisible},
		{"GrantFIFO", sessionGrantFIFO},
		{"OutboxOverflowDeposes", sessionOutboxOverflow},
		{"DetachRacingCommit", sessionDetachRacingCommit},
		{"CloseJoinsDrivers", sessionCloseJoinsDrivers},
		{"CloseWaitsForHandling", sessionCloseWaitsForHandling},
		{"ReceiverSendsUpItsStack", sessionReceiverSendsUpItsStack},
		{"CallbackChain", sessionCallbackChain},
	}
	for _, tr := range sessionTransports {
		for _, c := range cases {
			tr, c := tr, c
			t.Run(tr.name+"/"+c.name, func(t *testing.T) { c.run(t, tr.transport) })
		}
	}
}

// The hello is the first frame on a session, even when the client's first
// request is already on the wire before the server attached it.
func sessionHelloFirst(t *testing.T, transport string) {
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	var conn Conn
	if h.addr == "" {
		cEnd, sEnd := Pipe()
		if err := cEnd.Send(readReq(3, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.srv.Attach(sEnd); err != nil {
			t.Fatal(err)
		}
		conn = cEnd
	} else {
		conn = h.dial(t)
		if err := conn.Send(readReq(3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	defer conn.Close()
	if m := recvWithin(t, conn, 5*time.Second); m.Kind != core.MHello {
		t.Fatalf("first frame is %v, want hello", m.Kind)
	}
	if m := recvWithin(t, conn, 5*time.Second); m.Kind != core.MPageData || m.Req != 1 {
		t.Fatalf("second frame is %v req %d, want the page grant for req 1", m.Kind, m.Req)
	}
}

// The transport is semantically invisible: a commit on one session is
// read back on another.
func sessionCommitVisible(t *testing.T, transport string) {
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	c1, c2 := h.client(t), h.client(t)
	defer c1.Close()
	defer c2.Close()

	tx, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(1, 2), []byte("one machine")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx2.Read(o(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("one machine")) {
		t.Fatalf("read back %q", got)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A page grant staged ahead of a control message arrives ahead of it, and
// carries what the store holds when it ships: bytes installed after the
// grant was staged (and before it left) are the ones the client gets.
func sessionGrantFIFO(t *testing.T, transport string) {
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	conn, sess := h.rawSession(t)
	defer conn.Close()

	// Staged the way a receiver stages its own request's output: nobody is
	// kicked, so nothing leaves before the install below.
	sess.push(&core.Msg{Kind: core.MPageData, To: sess.id, Req: 1, Page: 7}, true, 0)
	sess.push(&core.Msg{Kind: core.MGrant, To: sess.id, Req: 2}, true, 0)
	if err := h.srv.store.WriteObj(o(7, 1), []byte("installed after staging")); err != nil {
		t.Fatal(err)
	}
	want, err := h.srv.store.ReadPage(7)
	if err != nil {
		t.Fatal(err)
	}
	sess.pump()

	if m := recvWithin(t, conn, 5*time.Second); m.Kind != core.MPageData || m.Req != 1 || !bytes.Equal(m.Data, want) {
		t.Fatalf("first frame %v req %d with %d payload bytes, want the page grant with the store's current page", m.Kind, m.Req, len(m.Data))
	}
	if m := recvWithin(t, conn, 5*time.Second); m.Kind != core.MGrant || m.Req != 2 {
		t.Fatalf("second frame %v req %d, want the grant staged behind the data", m.Kind, m.Req)
	}
}

// A session whose peer stopped reading is deposed through the normal
// departure path instead of buffering without bound: by the outbox limit
// once its pump is parked on the full connection, or — the reactor never
// parks — by the drain cap on the bytes its socket refused. Exactly one of
// the two fires, once. The backlog is output other sessions' requests
// produce for it (staged here the way the engine stages a callback), one
// message at a time, so that each bound is approached from below, and each
// settled by a goroutine of its own, as the request that staged it would:
// on a pipe, where the stager ships, the first to find the peer not reading
// stays parked in the send until the depose closes the connection.
func sessionOutboxOverflow(t *testing.T, transport string) {
	const limit = 32
	h := newSessionHarness(t, transport, ServerOptions{
		PageSize: 4096, ObjsPerPage: 4, NumPages: 64, outboxLimit: limit, reactorDrainCap: 64 << 10,
	})
	defer h.srv.Close()
	conn, sess := h.rawSession(t)
	defer conn.Close()

	// Engine state for the departure to sweep: cached copies and an open
	// transaction's read locks.
	for i := 0; i < 4; i++ {
		if err := conn.Send(readReq(i, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if m := recvWithin(t, conn, 5*time.Second); m.Kind != core.MPageData {
			t.Fatalf("reply %d is %v, want a page grant", i, m.Kind)
		}
	}

	// From here on the peer reads nothing.
	outboxLen := func() int {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return len(sess.outbox)
	}
	for i := 0; h.srv.sessionOf(sess.id) == sess; i++ {
		if i > 1<<16 {
			t.Fatal("64k unread page grants and the session is still attached")
		}
		held := h.srv.lockEngine()
		after := h.srv.stage(nil, []core.Msg{{Kind: core.MPageData, To: sess.id, Page: core.PageID(i % 64)}}, nil)
		h.srv.unlockEngine(held)
		go h.srv.settle(after)
		for wait := time.Now(); outboxLen() > 0 && time.Since(wait) < 20*time.Millisecond; {
			runtime.Gosched()
		}
	}
	reg := h.srv.Metrics()
	byOutbox, byDrainCap := reg.CounterValue("oodb_live_outbox_deposes_total"), reg.CounterValue("oodb_live_reactor_deposes_total")
	if byOutbox+byDrainCap != 1 {
		t.Fatalf("outbox deposes = %d, drain-cap deposes = %d, want exactly one depose", byOutbox, byDrainCap)
	}
	// What was sent before the depose may still arrive; then the
	// connection is closed.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("deposed session's connection never closed")
	}
	waitFor(t, "the deposed session's engine state to be swept", func() bool { return quiesced(h.srv) })
}

// A detach racing an in-flight multi-page commit leaves no engine state
// behind, whichever side wins, and an acknowledged commit is there for
// the next session to read.
func sessionDetachRacingCommit(t *testing.T, transport string) {
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		cl := h.client(t)
		val := []byte{byte(round + 1)}
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 8; p++ {
			if err := tx.Write(o(core.PageID(p), 0), val); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		var commitErr error
		wg.Add(2)
		go func() { defer wg.Done(); commitErr = tx.Commit() }()
		go func() { defer wg.Done(); h.srv.detach(cl.ID()) }()
		wg.Wait()
		cl.Close()

		waitFor(t, "the engine to quiesce after the detach", func() bool {
			return h.srv.sessionOf(cl.ID()) == nil && quiesced(h.srv)
		})
		if commitErr != nil {
			continue // the detach won; nothing was promised
		}
		check := h.client(t)
		tx2, err := check.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 8; p++ {
			got, err := tx2.Read(o(core.PageID(p), 0))
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != val[0] {
				t.Fatalf("round %d: acked commit lost on page %d: read %d, want %d", round, p, got[0], val[0])
			}
		}
		tx2.Commit()
		check.Close()
		waitFor(t, "the checking session to leave", func() bool { return h.srv.sessionOf(check.ID()) == nil })
	}
}

// Close returns only after every goroutine the server started for its
// sessions (and its background loops) has exited.
func sessionCloseJoinsDrivers(t *testing.T, transport string) {
	before := countGoroutines()
	h := newSessionHarness(t, transport, ServerOptions{CallbackTimeout: time.Minute})
	const n = 8
	conns := make([]Conn, n)
	for i := range conns {
		conns[i], _ = h.rawSession(t)
	}
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.Close()
	}
	if after := countGoroutines(); after > before {
		t.Fatalf("goroutines: %d before OpenServer, %d after Close", before, after)
	}
}

// Close waits for every request in hand, whichever goroutine handles it
// (over a pipe: the client's own). A commit that passed its session check
// before Close began lands before the log is truncated and closed, and
// nothing reaches the log after: an append to the closed log would panic,
// and one after the truncate would survive in it. Clients commit in a loop
// while the server closes under them, for a few rounds to hit the window.
// That needs a committer descheduled between its check and its append,
// which one P makes likely; with a P of its own it is through in
// microseconds.
func sessionCloseWaitsForHandling(t *testing.T, transport string) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := 0; round < 30; round++ {
		h := newSessionHarness(t, transport, ServerOptions{})
		const n = 8
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			cl := h.client(t)
			wg.Add(1)
			go func(page core.PageID) {
				defer wg.Done()
				defer cl.Close()
				val := make([]byte, cl.ObjSize())
				for k := 0; ; k++ {
					tx, err := cl.Begin()
					if err != nil {
						return
					}
					val[0] = byte(k)
					if tx.Write(o(page, 0), val) != nil || tx.Commit() != nil {
						return
					}
				}
			}(core.PageID(i))
		}
		time.Sleep(20 * time.Millisecond)
		if err := h.srv.Close(); err != nil {
			t.Fatal(err)
		}
		log := filepath.Join(h.srv.dir, "wal.log")
		closed := fileSize(t, log)
		wg.Wait()
		if size := fileSize(t, log); size != closed {
			t.Fatalf("round %d: log grew from %d to %d bytes after Close", round, closed, size)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// A client receiver that sends its next request from inside the reply's
// call: over a pipe the request waits in the session end's run queue for
// the deliverer further up the same stack (the goroutine that sent the
// first request), so the whole chain runs there, each reply in order and
// no receiver call nested in another.
func sessionReceiverSendsUpItsStack(t *testing.T, transport string) {
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	conn, _ := h.rawSession(t)
	defer conn.Close()

	const n = 32
	var inside atomic.Int32
	replies := make(chan int64, n)
	me := goroutineID()
	receive(conn, func(m *core.Msg, err error) {
		if err != nil {
			return
		}
		if inside.Add(1) != 1 {
			t.Error("receiver called concurrently or nested")
		}
		defer inside.Add(-1)
		if h.addr == "" && goroutineID() != me {
			t.Errorf("reply %d delivered off the goroutine that sent the first request", m.Req)
		}
		replies <- m.Req
		if m.Req < n {
			if err := conn.Send(readReq(int(m.Req), m.Req+1)); err != nil {
				t.Errorf("request %d: %v", m.Req+1, err)
			}
		}
	})
	if err := conn.Send(readReq(0, 1)); err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= n; want++ {
		select {
		case got := <-replies:
			if got != want {
				t.Fatalf("reply to request %d arrived where %d was due", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no reply to request %d", want)
		}
	}
}

// A write that needs an idle client's callback answered completes; over a
// pipe, on the writer's goroutine alone (callbackChain).
func sessionCallbackChain(t *testing.T, transport string) {
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	callbackChain(t, h.srv, func() Conn { return h.dial(t) })
}

// TestSessionRejectsOutOfRangeIDs: a session that names a page past the
// pages it was told of (under OODB_RECLUSTER=1, page 64 is the first of
// the spare region, none of it given out) or a slot past its objects per
// page, or commits an image longer than the slot, is closed before the
// engine sees the message.
// Nothing is counted, logged or installed for it, the server keeps
// serving, and the log it leaves recovers.
func TestSessionRejectsOutOfRangeIDs(t *testing.T) {
	const pages, slots = 64, 4 // 63-byte slots
	allKinds := []core.MsgKind{core.MReadReq, core.MWriteReq, core.MCommitReq}
	bad := []struct {
		name  string
		obj   core.ObjID
		img   []byte // the commit's image for obj
		kinds []core.MsgKind
	}{
		{"page>=NumPages", o(pages, 0), []byte("wild"), allKinds},
		{"page<0", o(-1, 0), []byte("wild"), allKinds},
		{"slot>=ObjsPerPage", o(1, slots), []byte("wild"), allKinds},
		{"slot=999", o(1, 999), []byte("wild"), allKinds},
		{"image>ObjSize", o(1, 1), make([]byte, 1000), []core.MsgKind{core.MCommitReq}},
	}
	for _, b := range bad {
		for _, kind := range b.kinds {
			b, kind := b, kind
			t.Run(b.name+"/"+kind.String(), func(t *testing.T) {
				dir := t.TempDir()
				opts := ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: slots, NumPages: pages}
				srv, err := openServer(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { srv.Close() }()
				h := &sessionHarness{srv: srv}
				conn, _ := h.rawSession(t)
				defer conn.Close()

				const txn = 0x0bad
				m := &core.Msg{Kind: kind, Txn: txn, Req: 1, Page: b.obj.Page, Obj: b.obj}
				if kind == core.MCommitReq {
					// The transaction holds a real page lock; only its
					// commit names the bad object.
					if err := conn.Send(&core.Msg{Kind: core.MWriteReq, Txn: txn, Req: 1, Obj: o(1, 0), Page: 1}); err != nil {
						t.Fatal(err)
					}
					if g := recvWithin(t, conn, 5*time.Second); g.Grant != core.GrantPage {
						t.Fatalf("write grant: %v grant %v", g.Kind, g.Grant)
					}
					m = &core.Msg{Kind: kind, Txn: txn, Req: 2, Pages: []core.PageID{1},
						Updates: map[core.ObjID][]byte{o(1, 0): []byte("ok"), b.obj: b.img}}
					if b.obj.Page != 1 {
						m.Pages = append(m.Pages, b.obj.Page)
					}
				}
				before := srv.Stats()
				if err := conn.Send(m); err != nil {
					t.Fatal(err)
				}
				// The session closes: Recv ends in an error, with no
				// reply to the bad message on the way.
				for {
					r := <-recvAsync(conn)
					if r.err != nil {
						break
					}
					t.Fatalf("reply %v to a message naming %v", r.m.Kind, b.obj)
				}
				if err := srv.Failed(); err != nil {
					t.Fatalf("server failed: %v", err)
				}
				after := srv.Stats()
				if after.ReadReqs != before.ReadReqs || after.WriteReqs != before.WriteReqs || after.Commits != before.Commits {
					t.Fatalf("engine counted the message: before %+v, after %+v", before, after)
				}

				// Another client still commits, on the page the deposed
				// session had locked.
				cl := h.client(t)
				tx, err := cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(o(1, 0), []byte("next")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				cl.Close()
				waitFor(t, "engine quiesced", func() bool { return quiesced(srv) })

				// The log recovers.
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				srv, err = openServer(dir, opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
			})
		}
	}
}

// TestSessionFinishesOnlyItsOwnTxns: a session that names another
// session's live transaction — to abort it, or to commit it with updates —
// is closed before the engine or the log sees the message. The owner's
// write lock still blocks a reader, and the owner then commits.
func TestSessionFinishesOnlyItsOwnTxns(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := &sessionHarness{srv: srv}
	x := o(1, 0)

	const txnA, txnC = 0xa001, 0xc001
	a, _ := h.rawSession(t)
	defer a.Close()
	if err := a.Send(&core.Msg{Kind: core.MWriteReq, Txn: txnA, Req: 1, Obj: x, Page: x.Page}); err != nil {
		t.Fatal(err)
	}
	if g := recvWithin(t, a, 5*time.Second); g.Grant != core.GrantPage {
		t.Fatalf("write grant: %v grant %v", g.Kind, g.Grant)
	}

	foreign := map[core.ClientID]bool{}
	for _, m := range []*core.Msg{
		{Kind: core.MAbortReq, Txn: txnA, Req: 1},
		{Kind: core.MCommitReq, Txn: txnA, Req: 2, Pages: []core.PageID{x.Page},
			Updates: map[core.ObjID][]byte{x: []byte("forged")}},
	} {
		b, sessB := h.rawSession(t)
		foreign[sessB.id] = true
		if err := b.Send(m); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-recvAsync(b):
			if r.err == nil {
				t.Fatalf("reply %v to a %v naming another session's transaction", r.m.Kind, m.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("session that sent a %v for another session's transaction was not closed", m.Kind)
		}
		b.Close()
	}
	if err := srv.Failed(); err != nil {
		t.Fatalf("server failed: %v", err)
	}

	// A's write lock still blocks a reader of x, through PS-AA's
	// de-escalation to an object lock.
	c, _ := h.rawSession(t)
	defer c.Close()
	if err := c.Send(&core.Msg{Kind: core.MReadReq, Txn: txnC, Req: 1, Obj: x, Page: x.Page}); err != nil {
		t.Fatal(err)
	}
	if d := recvWithin(t, a, 5*time.Second); d.Kind != core.MDeescReq {
		t.Fatalf("A got %v, want %v", d.Kind, core.MDeescReq)
	}
	if err := a.Send(&core.Msg{Kind: core.MDeescReply, Txn: txnA, Page: x.Page, DeescObjs: []core.ObjID{x}}); err != nil {
		t.Fatal(err)
	}
	read := recvAsync(c)
	select {
	case r := <-read:
		t.Fatalf("reader got %v, err %v while A holds x", r.m, r.err)
	case <-time.After(200 * time.Millisecond):
	}

	if err := a.Send(&core.Msg{Kind: core.MCommitReq, Txn: txnA, Req: 2, Pages: []core.PageID{x.Page},
		Updates: map[core.ObjID][]byte{x: []byte("A")}}); err != nil {
		t.Fatal(err)
	}
	if ack := recvWithin(t, a, 5*time.Second); ack.Kind != core.MCommitAck {
		t.Fatalf("A's commit: got %v", ack.Kind)
	}
	select {
	case r := <-read:
		if r.err != nil || r.m.Kind != core.MPageData {
			t.Fatalf("reader after A's commit: %v, err %v", r.m, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after A committed")
	}
	if err := c.Send(&core.Msg{Kind: core.MAbortReq, Txn: txnC, Req: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "engine quiesced", func() bool { return quiesced(srv) })

	f, err := openFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*walRecord
	_, err = scanWAL(f, collectInto(&recs))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	for _, r := range recs {
		if foreign[r.Client] {
			t.Fatalf("log holds a record from a closed session: %+v", r)
		}
		if r.Txn == txnA {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("log holds %d records for A's transaction, want 1", commits)
	}
}

// TestSessionRejectsOutOfTurnRequests: each row is a message that
// core.ServerEngine.Fits or Admit refuses and that the engine, handed it,
// would panic on or acknowledge — a server-to-client or unknown kind; a
// write of an object under a page write lock its transaction already
// holds, a request with no transaction, a request or commit while the
// transaction's previous request is blocked; a commit of a transaction the
// server never saw or one that logs an object its transaction never
// locked; a callback ack from a client the round is not waiting on or of a
// kind the protocol never sends; a de-escalation reply about another page.
// The sender's session closes with no reply and the server stays up; the
// engine counts nothing, another client commits on the pages involved, the
// log holds only that commit, and the directory reopens with its values.
func TestSessionRejectsOutOfTurnRequests(t *testing.T) {
	const txnA, txnB = 0xa002, 0xb002
	x, y := o(1, 0), o(2, 0)
	// callbackOnB opens B, which caches y's page, so that A's write there
	// waits on B's callback ack, and returns B with its callback.
	callbackOnB := func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg) {
		b, _ := h.rawSession(t)
		if err := b.Send(&core.Msg{Kind: core.MReadReq, Txn: txnB, Req: 1, Obj: y, Page: y.Page}); err != nil {
			t.Fatal(err)
		}
		if d := recvWithin(t, b, 5*time.Second); d.Kind != core.MPageData {
			t.Fatalf("B's read: got %v", d.Kind)
		}
		if err := a.Send(&core.Msg{Kind: core.MWriteReq, Txn: txnA, Req: 2, Obj: o(2, 1), Page: y.Page}); err != nil {
			t.Fatal(err)
		}
		cb := recvWithin(t, b, 5*time.Second)
		if cb.Kind != core.MCallback {
			t.Fatalf("B got %v, want %v", cb.Kind, core.MCallback)
		}
		return b, cb
	}
	// blockedB opens B, whose read of x waits for A to de-escalate.
	blockedB := func(t *testing.T, h *sessionHarness, a Conn) Conn {
		b, _ := h.rawSession(t)
		if err := b.Send(&core.Msg{Kind: core.MReadReq, Txn: txnB, Req: 1, Obj: x, Page: x.Page}); err != nil {
			t.Fatal(err)
		}
		if d := recvWithin(t, a, 5*time.Second); d.Kind != core.MDeescReq {
			t.Fatalf("A got %v, want %v", d.Kind, core.MDeescReq)
		}
		return b
	}
	// Every row starts with A holding page X on x's page. setup returns the
	// sender of bad, and the other sessions it opened. A tcp row also runs
	// over TCP.
	rows := []struct {
		name  string
		tcp   bool
		setup func(t *testing.T, h *sessionHarness, a Conn) (from Conn, bad *core.Msg, others []Conn)
	}{
		{"kind=Grant", true, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return a, &core.Msg{Kind: core.MGrant, Txn: txnA, Req: 2, Obj: x, Page: x.Page, Grant: core.GrantPage}, nil
		}},
		{"kind=-1", true, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return a, &core.Msg{Kind: -1, Txn: txnA, Req: 2, Obj: x, Page: x.Page}, nil
		}},
		{"write-under-own-page-X", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return a, &core.Msg{Kind: core.MWriteReq, Txn: txnA, Req: 2, Obj: o(1, 1), Page: 1}, nil
		}},
		{"read-with-no-txn", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return a, &core.Msg{Kind: core.MReadReq, Txn: core.NoTxn, Req: 2, Obj: y, Page: y.Page}, nil
		}},
		{"read-while-blocked", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return blockedB(t, h, a), &core.Msg{Kind: core.MReadReq, Txn: txnB, Req: 2, Obj: y, Page: y.Page}, nil
		}},
		{"commit-while-blocked", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return blockedB(t, h, a), &core.Msg{Kind: core.MCommitReq, Txn: txnB, Req: 2, Pages: []core.PageID{y.Page},
				Updates: map[core.ObjID][]byte{y: []byte("forged")}}, nil
		}},
		{"commit-unknown-txn", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return a, &core.Msg{Kind: core.MCommitReq, Txn: txnB, Req: 2}, nil
		}},
		{"commit-unlocked", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			return a, &core.Msg{Kind: core.MCommitReq, Txn: txnA, Req: 2, Pages: []core.PageID{x.Page, y.Page},
				Updates: map[core.ObjID][]byte{x: []byte("A"), y: []byte("forged")}}, nil
		}},
		{"ack-from-bystander", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			b, cb := callbackOnB(t, h, a)
			c, _ := h.rawSession(t)
			return c, &core.Msg{Kind: core.MCallbackAck, Req: cb.Req, Page: cb.Page, Obj: cb.Obj,
				CB: cb.CB, Purged: true, Epoch: cb.Epoch}, []Conn{b}
		}},
		{"ack-of-another-kind", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			b, cb := callbackOnB(t, h, a)
			return b, &core.Msg{Kind: core.MCallbackAck, Req: cb.Req, Page: cb.Page, Obj: cb.Obj,
				CB: core.CBObject, Purged: true, Epoch: cb.Epoch}, nil
		}},
		{"deesc-reply-off-page", false, func(t *testing.T, h *sessionHarness, a Conn) (Conn, *core.Msg, []Conn) {
			b := blockedB(t, h, a)
			return a, &core.Msg{Kind: core.MDeescReply, Txn: txnA, Page: x.Page, DeescObjs: []core.ObjID{o(5, 0)}}, []Conn{b}
		}},
	}
	for _, row := range rows {
		runs := [][2]string{{row.name, ""}}
		if row.tcp {
			runs = [][2]string{{row.name + "/pipe", ""}, {row.name + "/tcp", TransportGoroutine}}
		}
		for _, run := range runs {
			row, transport := row, run[1]
			t.Run(run[0], func(t *testing.T) {
				h := newSessionHarness(t, transport, ServerOptions{})
				srv := h.srv
				defer func() { srv.Close() }()
				a, _ := h.rawSession(t)
				defer a.Close()
				if err := a.Send(&core.Msg{Kind: core.MWriteReq, Txn: txnA, Req: 1, Obj: x, Page: x.Page}); err != nil {
					t.Fatal(err)
				}
				if g := recvWithin(t, a, 5*time.Second); g.Grant != core.GrantPage {
					t.Fatalf("write grant: %v grant %v", g.Kind, g.Grant)
				}
				from, bad, others := row.setup(t, h, a)
				for _, c := range others {
					defer c.Close()
				}

				before := srv.Stats()
				if err := from.Send(bad); err != nil {
					t.Fatal(err)
				}
				select {
				case r := <-recvAsync(from):
					if r.err == nil {
						t.Fatalf("reply %v to %+v", r.m.Kind, bad)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("session that sent %+v was not closed", bad)
				}
				if err := srv.Failed(); err != nil {
					t.Fatalf("server failed: %v", err)
				}
				after := srv.Stats()
				if after.ReadReqs != before.ReadReqs || after.WriteReqs != before.WriteReqs ||
					after.Commits != before.Commits || after.BusyReplies != before.BusyReplies {
					t.Fatalf("engine counted the message: before %+v, after %+v", before, after)
				}

				// With every raw session gone, another client commits on the
				// pages involved.
				a.Close()
				for _, c := range append(others, from) {
					c.Close()
				}
				cl := h.client(t)
				tx, err := cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for _, obj := range []core.ObjID{x, y} {
					if err := tx.Write(obj, []byte("next")); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				cl.Close()
				waitFor(t, "engine quiesced", func() bool { return quiesced(srv) })

				f, err := openFile(filepath.Join(srv.dir, "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				var recs []*walRecord
				_, err = scanWAL(f, collectInto(&recs))
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 1 || recs[0].Txn == txnA || recs[0].Txn == txnB {
					t.Fatalf("log holds %d records, want only the other client's commit", len(recs))
				}

				// The directory reopens with the commit's values.
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				srv, err = openServer(srv.dir, ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 64})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				cl = attachClient(t, srv)
				defer cl.Close()
				tx, err = cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for _, obj := range []core.ObjID{x, y} {
					if got, err := tx.Read(obj); err != nil || !bytes.HasPrefix(got, []byte("next")) {
						t.Fatalf("after reopen, %v reads %q, %v", obj, got, err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
