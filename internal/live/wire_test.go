package live

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWireVersionMismatch: a connection presenting the wrong version byte
// must be rejected at accept time — the server closes it before any frame
// exchange, so a stale client fails fast instead of desynchronizing.
func TestWireVersionMismatch(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	go srv.ListenAndServe("127.0.0.1:0")
	var addr string
	for i := 0; i < 1000; i++ {
		if addr = srv.Addr(); addr != "" {
			break
		}
		sleepMs(5)
	}
	if addr == "" {
		t.Fatal("server never listened")
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{wireVersion + 1}); err != nil {
		t.Fatal(err)
	}
	// The server must close without sending anything (no MHello frame).
	buf := make([]byte, 1)
	if n, err := raw.Read(buf); err != io.EOF {
		t.Fatalf("read after bad handshake: n=%d err=%v, want EOF", n, err)
	}

	// A correct handshake on the same server still works.
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(conn, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
}

// TestChanConnCloseDrain: messages sent before Close must all be
// delivered, in order, before Recv reports the closure — a burst (commit
// ack plus callback fan-out) racing a teardown must not lose its tail.
func TestChanConnCloseDrain(t *testing.T) {
	a, b := Pipe()
	const n = 10
	for i := 0; i < n; i++ {
		if err := b.Send(&core.Msg{Kind: core.MGrant, Req: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	for i := 0; i < n; i++ {
		m, err := a.Recv()
		if err != nil {
			t.Fatalf("Recv %d after close: %v", i, err)
		}
		if m.Req != int64(i) {
			t.Fatalf("Recv %d: got Req %d", i, m.Req)
		}
	}
	if _, err := a.Recv(); err == nil {
		t.Fatal("Recv past the drained queue succeeded")
	}
}

// A Send from an end its owner polls never runs the peer's receiver on the
// sending goroutine: that owner may hold, across Send, a lock its own poller
// needs (a Client over a wrapped pipe holds c.mu). The messages still reach
// the receiver in order, one call at a time.
func TestPolledEndSendDoesNotDeliver(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	const n = 4
	release := make(chan struct{})
	got := make(chan int64, n)
	var inside atomic.Int32
	b.(*chanConn).setReceiver(func(m *core.Msg, err error) {
		if err != nil {
			return
		}
		if inside.Add(1) != 1 {
			t.Error("receiver called concurrently")
		}
		<-release
		inside.Add(-1)
		got <- m.Req
	})
	sent := make(chan error, 1)
	go func() {
		for i := int64(1); i <= n; i++ {
			if err := a.Send(&core.Msg{Kind: core.MReadReq, Req: i}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Send from a polled end waited for the peer's receiver")
	}
	close(release)
	for want := int64(1); want <= n; want++ {
		select {
		case r := <-got:
			if r != want {
				t.Fatalf("message %d arrived where %d was due", r, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never delivered", want)
		}
	}
}

// TestPipeSendRecvAllocatesNothing: a message between two polled pipe ends
// waits in a channel for its poller, so sending it starts no goroutine to
// deliver it, and the round trip allocates nothing.
func TestPipeSendRecvAllocatesNothing(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	m := &core.Msg{Kind: core.MCallbackAck, Req: 7}
	if n := testing.AllocsPerRun(1000, func() {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a pipe Send+Recv allocates %.2f times, want 0", n)
	}
}

// TestTCPConnFraming round-trips representative messages through the real
// framing (header, write-through sends) over a socket pair.
func TestTCPConnFraming(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := NewTCPConn(c1), NewTCPConn(<-accepted)
	defer t1.Close()
	defer t2.Close()

	msgs := []*core.Msg{
		{Kind: core.MPageData, Txn: 1, Data: make([]byte, 4096), Unavail: []uint16{2}},
		{Kind: core.MGrant, Txn: 2, Obj: o(1, 1)},
		{Kind: core.MCommitReq, Txn: 3, Updates: map[core.ObjID][]byte{o(0, 0): []byte("v")}},
	}
	// A burst of sends arrives whole and in order.
	for _, m := range msgs {
		if err := t1.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := t2.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Txn != want.Txn || len(got.Data) != len(want.Data) {
			t.Fatalf("Recv %d: got %+v want %+v", i, got, want)
		}
	}

	// Oversized messages are refused at Send, not silently truncated.
	if err := t1.Send(&core.Msg{Data: make([]byte, maxFrame+1)}); err == nil {
		t.Fatal("oversized Send succeeded")
	}
}

// TestDialNeverReadsServer: Dial's handshake write carries a deadline so
// a black-holed server cannot hang the dialer — and the deadline is
// CLEARED afterwards, so a long-lived connection's later writes are not
// poisoned by a stale timer.
func TestDialNeverReadsServer(t *testing.T) {
	saved := handshakeTimeout
	handshakeTimeout = 200 * time.Millisecond
	defer func() { handshakeTimeout = saved }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c // parked: nothing reads until the test says so
	}()

	start := time.Now()
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial against a never-reads server: %v", err)
	}
	defer conn.Close()
	if el := time.Since(start); el > 3*handshakeTimeout {
		t.Fatalf("Dial took %v; handshake write deadline not applied", el)
	}

	// Let the handshake deadline expire, then write. If Dial forgot to
	// clear the deadline this Send fails with a timeout even though the
	// peer is now draining.
	time.Sleep(handshakeTimeout + 50*time.Millisecond)
	srvEnd := <-accepted
	defer srvEnd.Close()
	go io.Copy(io.Discard, srvEnd)
	if err := conn.Send(&core.Msg{Kind: core.MPageData, Data: make([]byte, 8192)}); err != nil {
		t.Fatalf("Send after handshake deadline elapsed: %v (stale write deadline?)", err)
	}
}

// TestRecvReleasesLargeReadBuf: one huge frame must not pin a
// frame-sized buffer on the connection for its whole lifetime; Recv
// reads frames larger than its read buffer through a transient one, and
// the read buffer never grows past readBufKeep.
func TestRecvReleasesLargeReadBuf(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver := NewTCPConn(c1), NewTCPConn(<-accepted)
	defer sender.Close()
	defer receiver.Close()

	big := &core.Msg{Kind: core.MPageData, Txn: 7, Data: make([]byte, 256<<10)}
	if err := sender.Send(big); err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(big.Data) {
		t.Fatalf("round-tripped %d bytes, want %d", len(got.Data), len(big.Data))
	}
	tc := receiver.(*tcpConn)
	if tc.br.Size() > readBufKeep {
		t.Fatalf("read buffer at %d bytes after a %d-byte frame; must stay <= %d",
			tc.br.Size(), len(big.Data), readBufKeep)
	}

	// Small frames after the big one still work (the transient path must
	// not desynchronize the stream).
	if err := sender.Send(&core.Msg{Kind: core.MGrant, Txn: 8}); err != nil {
		t.Fatal(err)
	}
	if m, err := receiver.Recv(); err != nil || m.Txn != 8 {
		t.Fatalf("small frame after big: m=%+v err=%v", m, err)
	}
}

// TestJitteredSpread: backoff jitter must stay in [d/2, d) and two
// independently created sources must not draw in lockstep (the global
// locked source is gone; each retry loop owns a private one).
func TestJitteredSpread(t *testing.T) {
	var p RetryPolicy
	rng := newJitterRand()
	const d = 100 * time.Millisecond
	for i := 0; i < 2000; i++ {
		j := p.jittered(rng, d)
		if j < d/2 || j >= d {
			t.Fatalf("draw %d: %v outside [%v, %v)", i, j, d/2, d)
		}
	}

	a, b := newJitterRand(), newJitterRand()
	same := 0
	for i := 0; i < 16; i++ {
		if p.jittered(a, d) == p.jittered(b, d) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("two jitter sources produced identical sequences; seeds not decorrelated")
	}
}
