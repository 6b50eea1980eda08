package live

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// clientTransports are the three ways a client's end of a connection is
// driven (receive): a pipe calls the receiver from the sending goroutine,
// a socket and a wrapped pipe are polled by a reader goroutine. The
// contract below must hold identically over each.
var clientTransports = []struct {
	name string
	// pair returns the two ends of a raw connection with nothing attached.
	pair func(t *testing.T) (client, server Conn)
	// dial opens a session on a listening server and returns its client end.
	dial func(t *testing.T, srv *Server) (Conn, error)
}{
	{"pipe",
		func(t *testing.T) (Conn, Conn) { return Pipe() },
		dialPipe},
	{"tcp",
		func(t *testing.T) (Conn, Conn) {
			c, s := tcpPair(t)
			return NewTCPConn(c), NewTCPConn(s)
		},
		func(t *testing.T, srv *Server) (Conn, error) { return Dial(srv.Addr()) }},
	{"faulty-pipe",
		func(t *testing.T) (Conn, Conn) {
			c, s := Pipe()
			return fault.WrapConn(c, fault.ConnPlan{}), s
		},
		func(t *testing.T, srv *Server) (Conn, error) {
			c, err := dialPipe(t, srv)
			if err != nil {
				return nil, err
			}
			return fault.WrapConn(c, fault.ConnPlan{}), nil
		}},
}

func dialPipe(t *testing.T, srv *Server) (Conn, error) {
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		return nil, err
	}
	return cEnd, nil
}

// TestClientReceiveContract runs the client-side receive contract over
// every transport.
func TestClientReceiveContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, tr int)
	}{
		{"WireOrderNeverConcurrent", recvWireOrder},
		{"QueuedBeforeInstallFirst", recvQueuedFirst},
		{"TerminalOnceOffTheClosersGoroutine", recvTerminalOnce},
		{"IdleClientAnswersCallback", recvIdleClientAnswersCallback},
		{"RedialReinstalls", recvRedialReinstalls},
		{"SendsUpItsOwnStack", recvSendsUpItsOwnStack},
		{"CallbackChain", recvCallbackChain},
	}
	for i, tr := range clientTransports {
		for _, c := range cases {
			i, c := i, c
			t.Run(tr.name+"/"+c.name, func(t *testing.T) { c.run(t, i) })
		}
	}
}

// recvLog is a receiver that checks the contract as it is called: From is
// the sender's number and Req its sequence number, counted from 1.
type recvLog struct {
	t      *testing.T
	inside atomic.Int32

	mu        sync.Mutex // the terminal call takes it too (recvTerminalOnce)
	last      map[core.ClientID]int64
	msgs      int
	terminals int
	afterEnd  int // messages that arrived after the terminal call
	event     chan struct{}
}

func newRecvLog(t *testing.T) *recvLog {
	return &recvLog{t: t, last: make(map[core.ClientID]int64), event: make(chan struct{}, 1)}
}

func (l *recvLog) recv(m *core.Msg, err error) {
	if l.inside.Add(1) != 1 {
		l.t.Error("receiver called concurrently")
	}
	defer l.inside.Add(-1)
	l.mu.Lock()
	switch {
	case err != nil:
		l.terminals++
	case l.terminals > 0:
		l.afterEnd++
	default:
		if want := l.last[m.From] + 1; m.Req != want {
			l.t.Errorf("sender %d: message %d arrived where %d was due", m.From, m.Req, want)
		}
		l.last[m.From] = m.Req
		l.msgs++
	}
	l.mu.Unlock()
	select {
	case l.event <- struct{}{}:
	default:
	}
}

// await blocks until cond holds of the log (checked under its lock).
func (l *recvLog) await(what string, cond func() bool) {
	l.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-l.event:
		case <-deadline:
			l.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func numbered(from core.ClientID, seq int64) *core.Msg {
	return &core.Msg{Kind: core.MGrant, From: from, Req: seq}
}

// Messages reach the receiver in the order they were sent, one call at a
// time, with several goroutines sending at once.
func recvWireOrder(t *testing.T, tr int) {
	client, server := clientTransports[tr].pair(t)
	defer client.Close()
	defer server.Close()
	log := newRecvLog(t)
	receive(client, log.recv)

	const senders, each = 4, 200
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(from core.ClientID) {
			defer wg.Done()
			for seq := int64(1); seq <= each; seq++ {
				if err := server.Send(numbered(from, seq)); err != nil {
					t.Errorf("sender %d: %v", from, err)
					return
				}
			}
		}(core.ClientID(s))
	}
	wg.Wait()
	log.await("every message to arrive", func() bool { return log.msgs == senders*each })
}

// What the connection held before the receiver was installed arrives first,
// ahead of what is sent afterwards.
func recvQueuedFirst(t *testing.T, tr int) {
	client, server := clientTransports[tr].pair(t)
	defer client.Close()
	defer server.Close()
	for seq := int64(1); seq <= 5; seq++ {
		if err := server.Send(numbered(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	log := newRecvLog(t)
	receive(client, log.recv)
	for seq := int64(6); seq <= 10; seq++ {
		if err := server.Send(numbered(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	log.await("all ten messages", func() bool { return log.msgs == 10 })
}

// The terminal error arrives exactly once, behind every message, whichever
// end closes — and never on the closer's goroutine: Close is called here
// with a lock held that the terminal call takes.
func recvTerminalOnce(t *testing.T, tr int) {
	for _, closer := range []string{"client end", "server end"} {
		t.Run(closer, func(t *testing.T) {
			client, server := clientTransports[tr].pair(t)
			defer client.Close()
			defer server.Close()
			log := newRecvLog(t)
			receive(client, log.recv)
			for seq := int64(1); seq <= 3; seq++ {
				if err := server.Send(numbered(1, seq)); err != nil {
					t.Fatal(err)
				}
			}
			log.await("the messages sent before the close", func() bool { return log.msgs == 3 })

			closed := make(chan struct{})
			go func() {
				defer close(closed)
				log.mu.Lock()
				defer log.mu.Unlock()
				if closer == "client end" {
					client.Close()
				} else {
					server.Close()
				}
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close ran the receiver's terminal call on the closer's goroutine")
			}
			log.await("the terminal call", func() bool { return log.terminals > 0 })

			// Nothing follows it: not a second one for the other end's
			// Close, not a message.
			client.Close()
			server.Close()
			server.Send(numbered(1, 4))
			time.Sleep(20 * time.Millisecond)
			log.mu.Lock()
			defer log.mu.Unlock()
			if log.terminals != 1 || log.afterEnd != 0 {
				t.Fatalf("%d terminal calls and %d messages after the first, want 1 and 0", log.terminals, log.afterEnd)
			}
		})
	}
}

// A receiver may send to the very end it is receiving on: over a pipe the
// message waits in that end's run queue for the deliverer further up the
// stack, and arrives in order behind the one being received, never as a
// nested call.
func recvSendsUpItsOwnStack(t *testing.T, tr int) {
	client, server := clientTransports[tr].pair(t)
	defer client.Close()
	defer server.Close()
	log := newRecvLog(t)
	var inside atomic.Int32
	receive(client, func(m *core.Msg, err error) {
		if inside.Add(1) != 1 {
			t.Error("receiver re-entered by its own send")
		}
		defer inside.Add(-1)
		log.recv(m, err)
		if err == nil && m.From == 1 {
			if err := server.Send(numbered(2, m.Req)); err != nil {
				t.Errorf("send from inside the receiver: %v", err)
			}
		}
	})
	const each = 100
	for seq := int64(1); seq <= each; seq++ {
		if err := server.Send(numbered(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	log.await("every message and every echo", func() bool { return log.msgs == 2*each })
}

// A's write to an object idle B caches needs B's callback answered. Over a
// pipe nothing in that chain waits for another goroutine, so A's own
// goroutine runs all of it: B's receiver takes the callback, B's session
// takes the ack, A's receiver takes the grant. Over any transport the write
// completes, each receiver called in wire order and never concurrently.
func recvCallbackChain(t *testing.T, tr int) {
	srv := recvServer(t)
	defer srv.Close()
	callbackChain(t, srv, func() Conn {
		conn, err := clientTransports[tr].dial(t, srv)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	})
}

// callbackChain runs the chain recvCallbackChain describes over connections
// from dial, and requires it on the writer's goroutine when they are pipes.
func callbackChain(t *testing.T, srv *Server, dial func() Conn) {
	t.Helper()
	holder, err := Connect(dial(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	tx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(o(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	writer, err := Connect(dial(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	// Over pipes, note which goroutine every receiver call runs on.
	spies := []*receiverSpy{
		spyClient(t, holder), spyClient(t, writer), spySession(t, srv, holder.ID()),
	}
	me := goroutineID()
	wtx, err := writer.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := wtx.Write(o(5, 1), []byte("called back")); err != nil {
		t.Fatal(err)
	}
	if err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if spies[0] == nil {
		return // not a pipe: nothing to note
	}
	for i, want := range []core.MsgKind{core.MCallback, core.MPageData, core.MCallbackAck} {
		if got := spies[i].on(want); len(got) == 0 || got[0] != me {
			t.Errorf("%v delivered on goroutines %v, want the writer's %d", want, got, me)
		}
	}
}

// receiverSpy wraps the receiver of one pipe end and notes, per message
// kind, the goroutines it was called on; it fails the test on a concurrent
// or nested call.
type receiverSpy struct {
	t      *testing.T
	inside atomic.Int32
	mu     sync.Mutex
	calls  map[core.MsgKind][]uint64
}

func spyOn(t *testing.T, p *chanConn) *receiverSpy {
	sp := &receiverSpy{t: t, calls: make(map[core.MsgKind][]uint64)}
	p.rmu.Lock()
	defer p.rmu.Unlock()
	inner := p.recv
	p.recv = func(m *core.Msg, err error) {
		if sp.inside.Add(1) != 1 {
			sp.t.Error("receiver called concurrently")
		}
		if err == nil {
			sp.mu.Lock()
			sp.calls[m.Kind] = append(sp.calls[m.Kind], goroutineID())
			sp.mu.Unlock()
		}
		sp.inside.Add(-1)
		inner(m, err)
	}
	return sp
}

// spyClient spies on a client's end of a pipe (nil for any other Conn).
func spyClient(t *testing.T, cl *Client) *receiverSpy {
	cl.mu.Lock()
	p, ok := cl.conn.(*chanConn)
	cl.mu.Unlock()
	if !ok {
		return nil
	}
	return spyOn(t, p)
}

// spySession spies on the server's end of a session's pipe (nil for a
// socket session).
func spySession(t *testing.T, srv *Server, id core.ClientID) *receiverSpy {
	p, ok := srv.sessionOf(id).conn.(*pipeSession)
	if !ok {
		return nil
	}
	return spyOn(t, p.chanConn)
}

func (sp *receiverSpy) on(kind core.MsgKind) []uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]uint64(nil), sp.calls[kind]...)
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// recvServer is a listening PS-AA server for the cases that need a real one.
func recvServer(t *testing.T) *Server {
	t.Helper()
	srv, _ := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32, SyncWAL: false,
	})
	return srv
}

// holdThenGetCalledBack has holder cache an object and go idle, then has a
// second client over the same transport update it: the write completes only
// if holder — no call in progress, nobody parked in a Read or a Commit on
// its behalf — answers the server's callback.
func holdThenGetCalledBack(t *testing.T, tr int, srv *Server, holder *Client) {
	t.Helper()
	tx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(o(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	conn, err := clientTransports[tr].dial(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := Connect(conn, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	done := make(chan error, 1)
	go func() {
		wtx, err := writer.Begin()
		if err == nil {
			err = wtx.Write(o(5, 1), []byte("called back"))
		}
		if err == nil {
			err = wtx.Commit()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write against an idle holder: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write never completed: the idle holder did not answer its callback")
	}
}

func recvIdleClientAnswersCallback(t *testing.T, tr int) {
	srv := recvServer(t)
	defer srv.Close()
	conn, err := clientTransports[tr].dial(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	holder, err := Connect(conn, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	holdThenGetCalledBack(t, tr, srv, holder)
}

// A client that loses its connection and re-dials receives on the new one:
// its next transaction gets its replies, and — idle again — it answers
// callbacks.
func recvRedialReinstalls(t *testing.T, tr int) {
	srv := recvServer(t)
	defer srv.Close()
	dial := func() (Conn, error) { return clientTransports[tr].dial(t, srv) }
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(conn, ClientOptions{Redial: dial, Retry: RetryPolicy{BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first := cl.ID()
	conn.Close()
	waitFor(t, "the client to re-dial", func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.id != first && !cl.reconnecting
	})
	holdThenGetCalledBack(t, tr, srv, cl)
	if isPipe, installed := pipeReceiver(cl); isPipe && !installed {
		t.Fatal("the re-dialed pipe has no receiver installed")
	}
}

// pipeReceiver reports whether cl's connection is a bare in-process pipe,
// and whether that has a receiver installed.
func pipeReceiver(cl *Client) (isPipe, installed bool) {
	cl.mu.Lock()
	p, isPipe := cl.conn.(*chanConn)
	cl.mu.Unlock()
	if !isPipe {
		return false, false
	}
	p.rmu.Lock()
	defer p.rmu.Unlock()
	return true, p.recv != nil
}

// TestCallbackStormPipeClients: two in-process clients rewrite objects of
// one page in turn, so every transaction calls the page (or, under PS-AA,
// de-escalates and calls the object) back from the other. Each client's
// receiver runs on the other's server-side goroutines as often as on its
// own; the test is that nobody ever waits for a goroutine that is waiting
// for them. Run under -race -count=10.
func TestCallbackStormPipeClients(t *testing.T) {
	for _, proto := range []core.Protocol{core.PS, core.PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()
			txns := 300
			if testing.Short() {
				txns = 100
			}
			done := make(chan error, 2)
			for i := 0; i < 2; i++ {
				cl := attachClient(t, srv)
				defer cl.Close()
				mine, theirs := o(7, uint16(i)), o(7, uint16(1-i))
				go func() {
					for n := 0; n < txns; {
						tx, err := cl.Begin()
						if err == nil {
							_, err = tx.Read(theirs)
						}
						if err == nil {
							err = tx.Write(mine, []byte{byte(n)})
						}
						if err == nil {
							err = tx.Commit()
						}
						switch {
						case err == nil:
							n++
						case !errors.Is(err, ErrAborted):
							done <- err
							return
						}
					}
					done <- nil
				}()
			}
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("the two clients stopped making progress")
				}
			}
		})
	}
}

// TestInProcessClientGoroutines: a client over a pipe owns no goroutine,
// and neither does its session — N attached clients cost no goroutine at
// all beyond the server's background loops — and none is left once clients
// and server are closed.
func TestInProcessClientGoroutines(t *testing.T) {
	const n = 32
	before := countGoroutines()
	srv, _ := testServer(t, core.PSAA)
	idle := countGoroutines() // the server's background loops
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = attachClient(t, srv)
		tx, err := clients[i].Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(o(core.PageID(i), 0)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if attached := countGoroutines(); attached > idle {
		t.Errorf("%d goroutines for %d attached in-process clients, want none", attached-idle, n)
	}
	for _, cl := range clients {
		cl.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if after := countGoroutines(); after > before {
		t.Errorf("goroutines: %d before OpenServer, %d after every Close", before, after)
	}
}

// TestPipeRecvOwnsItsMessage: an end that polls a pipe owns each Msg it is
// handed — the session pools only what a receiver handed back — so a grant
// read with Recv is still what it was after the server has staged and
// shipped plenty more.
func TestPipeRecvOwnsItsMessage(t *testing.T) {
	h := newSessionHarness(t, "", ServerOptions{})
	defer h.srv.Close()
	conn, _ := h.rawSession(t)
	defer conn.Close()
	if err := conn.Send(readReq(3, 1)); err != nil {
		t.Fatal(err)
	}
	first := recvWithin(t, conn, 5*time.Second)
	kept := *first
	seen := map[*core.Msg]bool{first: true}
	busy := h.client(t) // a delivering pipe: its staged messages do go back to the pool
	defer busy.Close()
	for i := 2; i <= 20; i++ {
		tx, err := busy.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(o(core.PageID(i), 0)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(readReq(3+i, int64(i))); err != nil {
			t.Fatal(err)
		}
		m := recvWithin(t, conn, 5*time.Second)
		if seen[m] {
			t.Fatalf("reply %d arrived in a Msg this end already owns", i)
		}
		seen[m] = true
	}
	if first.Kind != kept.Kind || first.Req != kept.Req || first.Page != kept.Page || &first.Data[0] != &kept.Data[0] {
		t.Fatalf("the first grant changed underneath its owner: %+v, was %+v", *first, kept)
	}
}
