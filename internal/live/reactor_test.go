package live

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// startTransportServer opens a server with the given transport on a
// loopback listener and waits for it to publish an address. On platforms
// without epoll the reactor request falls back to goroutine-per-conn;
// tests that need reactor-specific behavior check srv.Transport() and
// skip on the fallback.
func startTransportServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := openServer(dir, opts)
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for addr = srv.Addr(); addr == ""; addr = srv.Addr() {
		if time.Now().After(deadline) {
			srv.Close()
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, addr
}

// TestReactorManyClients: concurrent commits from many clients, each in a
// private page region, all multiplexed over a handful of event loops.
// Exercises handler/pump interleaving under -race.
func TestReactorManyClients(t *testing.T) {
	const nClients = 16
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4,
		NumPages: nClients, SyncWAL: false, Transport: TransportReactor,
	})
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			cl, err := Connect(conn, ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			page := core.PageID(i)
			for rep := 0; rep < 5; rep++ {
				tx, err := cl.Begin()
				if err != nil {
					errs <- fmt.Errorf("client %d begin: %w", i, err)
					return
				}
				if err := tx.Write(o(page, uint16(rep%4)), []byte{byte(i), byte(rep)}); err != nil {
					errs <- fmt.Errorf("client %d write: %w", i, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("client %d commit: %w", i, err)
					return
				}
			}
			tx, err := cl.Begin()
			if err != nil {
				errs <- err
				return
			}
			got, err := tx.Read(o(page, 0))
			if err != nil {
				errs <- fmt.Errorf("client %d read back: %w", i, err)
				return
			}
			if got[0] != byte(i) {
				errs <- fmt.Errorf("client %d read %d, want %d", i, got[0], i)
				return
			}
			tx.Commit()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countGoroutines settles the runtime before sampling so freshly dead
// goroutines don't inflate the count.
func countGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		runtime.Gosched()
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestReactorGoroutineCountIdleSessions: the whole point of the reactor
// — N idle sessions must cost O(loops) server goroutines, not O(N) — and
// the price the goroutine transport pays instead: at most 2 per session
// (blockingConn's reader and pump). A raw Dial conn costs no goroutine on
// the client side.
func TestReactorGoroutineCountIdleSessions(t *testing.T) {
	const nConns = 200
	for _, tc := range []struct {
		transport string
		max       int // server-side goroutines allowed for nConns idle sessions
	}{
		// Generous slack for loops, accept machinery, and runtime noise —
		// but nowhere near the 2 per session of the goroutine transport.
		{TransportReactor, nConns / 2},
		{TransportGoroutine, 2*nConns + 8},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			srv, addr := startTransportServer(t, ServerOptions{
				Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 8,
				SyncWAL: false, Transport: tc.transport,
			})
			defer srv.Close()
			if srv.Transport() != tc.transport {
				t.Skipf("reactor unavailable on this platform (fell back to %q)", srv.Transport())
			}

			before, attached := countGoroutines(), srv.Sessions() // the planner's, if any
			conns := make([]Conn, 0, nConns)
			defer func() {
				for _, c := range conns {
					c.Close()
				}
			}()
			for i := 0; i < nConns; i++ {
				c, err := Dial(addr)
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				conns = append(conns, c)
			}
			waitFor(t, "every dialed session to attach", func() bool { return srv.Sessions() == attached+nConns })

			after := countGoroutines()
			if after-before > tc.max {
				t.Fatalf("goroutines grew by %d for %d sessions (limit %d)", after-before, nConns, tc.max)
			}
			t.Logf("goroutines: %d -> %d for %d idle sessions", before, after, nConns)
		})
	}
}

// dialNarrow opens a session on a raw socket whose receive buffer is pinned
// small — the kernel must not absorb a whole reply stream on the client's
// behalf — and consumes the hello.
func dialNarrow(t *testing.T, addr string) Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetReadBuffer(4096)
	if _, err := nc.Write([]byte{wireVersion}); err != nil {
		t.Fatal(err)
	}
	conn := NewTCPConn(nc)
	if _, err := conn.Recv(); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn
}

// closePromptly fails the test if Close waits on a deposed session's
// silent peer.
func closePromptly(t *testing.T, srv *Server) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind the deposed session's unread socket")
	}
}

// TestTCPSlowReaderDeposed: a session that requests pages but never
// drains its socket must be deposed — by the outbox cap once the blocking
// transport's pump stalls on the full socket, by reactorDrainCap once the
// reactor's pending-write queue passes it — and deposed means the server
// lets go of the socket: Close must not wait on the silent peer. (On the
// blocking transport the depose used to wedge forever in tcpConn.Close,
// behind the send lock the stalled write holds.)
func TestTCPSlowReaderDeposed(t *testing.T) {
	const nPages = 8192 // 32 MiB of page data, well past kernel buffering
	for _, tc := range []struct {
		transport, counter string
		opts               ServerOptions
	}{
		{TransportGoroutine, "oodb_live_outbox_deposes_total", ServerOptions{outboxLimit: 2048}},
		// outboxLimit -1: the reactor's byte cap must be the depose path
		// under test.
		{TransportReactor, "oodb_live_reactor_deposes_total", ServerOptions{outboxLimit: -1, reactorDrainCap: 32 << 10}},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			opts := tc.opts
			opts.Proto, opts.PageSize, opts.ObjsPerPage, opts.NumPages = core.PSAA, 4096, 4, nPages
			opts.Transport = tc.transport
			srv, addr := startTransportServer(t, opts)
			defer srv.Close()
			if srv.Transport() != tc.transport {
				t.Skipf("reactor unavailable on this platform (fell back to %q)", srv.Transport())
			}

			attached := srv.Sessions() // the planner's, if any
			conn := dialNarrow(t, addr)
			defer conn.Close()
			// The hello read, go silent on the receive side while
			// requesting page after page. Each first read of a page ships
			// ~4 KiB of data; once the kernel socket buffers fill, replies
			// back up on the server side and blow past the cap.
			deposed := func() bool {
				return srv.Sessions() == attached && srv.Metrics().CounterValue(tc.counter) >= 1
			}
			for i := 0; i < nPages && !deposed(); i++ {
				if err := conn.Send(readReq(i, int64(i+1))); err != nil {
					break // server already cut us off
				}
			}
			waitFor(t, "the slow reader to be deposed", deposed)
			closePromptly(t, srv)
		})
	}
}

// TestTCPLoneRequesterNeverReadsDeposed: a peer that asks for one page at
// a time and never reads a reply keeps no second request waiting, so the
// blocking session's reader ships every reply itself and ends up parked in
// a write to the full socket. From then on the session takes nothing in: no
// outbox limit is ever reached on its behalf and no callback is outstanding
// against it. The lease sweep must find it all the same — CallbackTimeout is
// how long a client may keep the server waiting — and deposed means the
// server lets go of the socket.
func TestTCPLoneRequesterNeverReadsDeposed(t *testing.T) {
	const nPages = 8192 // 32 MiB of page data, well past kernel buffering
	const timeout = 300 * time.Millisecond
	srv, addr := startTransportServer(t, ServerOptions{
		Proto: core.PSAA, PageSize: 4096, ObjsPerPage: 4, NumPages: nPages, SyncWAL: false,
		Transport: TransportGoroutine, CallbackTimeout: timeout, outboxLimit: -1,
	})
	defer srv.Close()
	attached := srv.Sessions() // the planner's, if any
	conn := dialNarrow(t, addr)
	defer conn.Close()

	reg := srv.Metrics()
	deposed := func() bool { return srv.Sessions() == attached }
	for i := 0; i < nPages && !deposed(); i++ {
		if err := conn.Send(readReq(i, int64(i+1))); err != nil {
			break // server already cut us off
		}
		// One at a time: the next request leaves once the server has taken
		// this one in — or never does, because its reader is parked.
		for sent := time.Now(); reg.CounterValue(`oodb_server_requests_total{kind="read"}`) <= int64(i) && !deposed(); {
			if time.Since(sent) > 20*timeout {
				t.Fatalf("request %d not taken in after %v and the session is still attached", i, 20*timeout)
			}
			runtime.Gosched()
		}
	}
	if !deposed() {
		t.Fatalf("%d replies sent unread and the server's writes never parked", nPages)
	}
	if got := reg.CounterValue("oodb_server_lease_expiries_total"); got != 1 {
		t.Errorf("oodb_server_lease_expiries_total = %d, want 1", got)
	}
	closePromptly(t, srv)
}

// TestSlowlorisAccept: connections that never send their version byte
// must neither delay other handshakes nor outlive handshakeTimeout —
// under both transports, since the accept path is shared.
func TestSlowlorisAccept(t *testing.T) {
	saved := handshakeTimeout
	handshakeTimeout = 300 * time.Millisecond
	defer func() { handshakeTimeout = saved }()

	for _, transport := range []string{TransportGoroutine, TransportReactor} {
		t.Run(transport, func(t *testing.T) {
			srv, addr := startTransportServer(t, ServerOptions{
				Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 8,
				SyncWAL: false, Transport: transport,
			})
			defer srv.Close()

			// Open silent connections that hold the handshake hostage.
			const nSilent = 5
			silent := make([]net.Conn, 0, nSilent)
			defer func() {
				for _, c := range silent {
					c.Close()
				}
			}()
			for i := 0; i < nSilent; i++ {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				silent = append(silent, c)
			}

			// Honest clients must get through while the silent conns dangle.
			start := time.Now()
			const nGood = 3
			attached := srv.Sessions() // the planner's, if any
			for i := 0; i < nGood; i++ {
				conn, err := Dial(addr)
				if err != nil {
					t.Fatalf("honest dial %d: %v", i, err)
				}
				cl, err := Connect(conn, ClientOptions{})
				if err != nil {
					t.Fatalf("honest connect %d: %v", i, err)
				}
				defer cl.Close()
				tx, err := cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(o(0, 0), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("honest handshakes took %v behind slowloris conns", el)
			}

			// The silent conns must be cut loose once handshakeTimeout
			// passes — the server closes them, so a read sees EOF/reset.
			for i, c := range silent {
				c.SetReadDeadline(time.Now().Add(10 * handshakeTimeout))
				var b [1]byte
				if _, err := c.Read(b[:]); err == nil {
					t.Fatalf("silent conn %d got data, want close", i)
				} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("silent conn %d still open %v after handshake timeout", i, 10*handshakeTimeout)
				}
			}
			if n := srv.Sessions(); n != attached+nGood {
				t.Fatalf("sessions = %d, want %d (silent conns must not become sessions)", n, attached+nGood)
			}
		})
	}
}

// TestReactorKickNeverStranded: every kick runs its pump, however kicks
// from other goroutines interleave with the loop draining its self-pipe. A
// kick must never find the loop's wake flag armed while no wake byte is
// left in the pipe, or its op waits in the queue while the loop sleeps.
func TestReactorKickNeverStranded(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	srv.opts.reactorLoops = 1
	r, err := newReactor(srv)
	if err != nil {
		t.Skipf("no reactor on this platform: %v", err)
	}
	defer r.shutdown()
	const kickers, kicks = 4, 3000
	var wg sync.WaitGroup
	for k := 0; k < kickers; k++ {
		ran := make(chan struct{}, 1)
		rc := &rconn{loop: r.loops[0], pump: func() { ran <- struct{}{} }}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < kicks; i++ {
				rc.Kick()
				select {
				case <-ran:
				case <-time.After(5 * time.Second):
					t.Errorf("kick %d never ran its pump", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
