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
	for i := 0; h.srv.Sessions() > 0; i++ {
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
			return h.srv.Sessions() == 0 && quiesced(h.srv)
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
		waitFor(t, "the checking session to leave", func() bool { return h.srv.Sessions() == 0 })
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

// TestSessionRejectsOutOfRangeIDs: a session that names a page outside
// the store or a slot past its objects per page, or commits an image
// longer than the slot, is closed before the engine sees the message.
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

// TestSessionRejectsOutOfTurnRequests: a session that sends what its own
// transaction's state rules out (core.OutOfTurn) — a second write of an
// object under a page write lock it already holds, a request with no
// transaction, or a request or commit while its previous request is still
// blocked — is closed before the engine
// sees the message, which would otherwise panic the server. Nothing reaches
// the log, and another client then commits on the page involved.
func TestSessionRejectsOutOfTurnRequests(t *testing.T) {
	const txnA, txnB = 0xa002, 0xb002
	x := o(1, 0)
	rows := []struct {
		name string
		// byA: bad comes from A, which holds page X on x's page; else from
		// B, whose read of x is blocked behind A.
		byA bool
		bad *core.Msg
	}{
		{"write-under-own-page-X", true,
			&core.Msg{Kind: core.MWriteReq, Txn: txnA, Req: 2, Obj: o(1, 1), Page: 1}},
		{"read-with-no-txn", true,
			&core.Msg{Kind: core.MReadReq, Txn: core.NoTxn, Req: 2, Obj: o(2, 0), Page: 2}},
		{"read-while-blocked", false,
			&core.Msg{Kind: core.MReadReq, Txn: txnB, Req: 2, Obj: o(2, 0), Page: 2}},
		{"commit-while-blocked", false,
			&core.Msg{Kind: core.MCommitReq, Txn: txnB, Req: 2, Pages: []core.PageID{2},
				Updates: map[core.ObjID][]byte{o(2, 0): []byte("forged")}}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := openServer(dir, ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { srv.Close() }()
			h := &sessionHarness{srv: srv}

			a, _ := h.rawSession(t)
			defer a.Close()
			if err := a.Send(&core.Msg{Kind: core.MWriteReq, Txn: txnA, Req: 1, Obj: x, Page: x.Page}); err != nil {
				t.Fatal(err)
			}
			if g := recvWithin(t, a, 5*time.Second); g.Grant != core.GrantPage {
				t.Fatalf("write grant: %v grant %v", g.Kind, g.Grant)
			}
			offender := a
			if !row.byA {
				b, _ := h.rawSession(t)
				defer b.Close()
				if err := b.Send(&core.Msg{Kind: core.MReadReq, Txn: txnB, Req: 1, Obj: x, Page: x.Page}); err != nil {
					t.Fatal(err)
				}
				if d := recvWithin(t, a, 5*time.Second); d.Kind != core.MDeescReq {
					t.Fatalf("A got %v, want %v", d.Kind, core.MDeescReq)
				}
				offender = b
			}

			before := srv.Stats()
			if err := offender.Send(row.bad); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-recvAsync(offender):
				if r.err == nil {
					t.Fatalf("reply %v to an out-of-turn %v", r.m.Kind, row.bad.Kind)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("session that sent an out-of-turn %v was not closed", row.bad.Kind)
			}
			if err := srv.Failed(); err != nil {
				t.Fatalf("server failed: %v", err)
			}
			after := srv.Stats()
			if after.ReadReqs != before.ReadReqs || after.WriteReqs != before.WriteReqs || after.Commits != before.Commits {
				t.Fatalf("engine counted the message: before %+v, after %+v", before, after)
			}

			// With A gone too, another client commits on x's page.
			a.Close()
			cl := h.client(t)
			defer cl.Close()
			tx, err := cl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(x, []byte("next")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(o(2, 0), []byte("next")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

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
			if len(recs) != 1 || recs[0].Txn == txnA || recs[0].Txn == txnB {
				t.Fatalf("log holds %d records, want only the other client's commit", len(recs))
			}
		})
	}
}
