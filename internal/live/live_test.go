package live

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func testServer(t testing.TB, proto core.Protocol) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: proto, PageSize: 256, ObjsPerPage: 4, NumPages: 32, SyncWAL: false,
	})
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	return srv, dir
}

func attachClient(t testing.TB, srv *Server) *Client {
	t.Helper()
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	cl, err := Connect(cEnd, ClientOptions{})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return cl
}

func o(p core.PageID, s uint16) core.ObjID { return core.ObjID{Page: p, Slot: s} }

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.db")
	s, err := CreateStore(path, 256, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteObj(o(3, 2), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.ReadObj(o(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello")) {
		t.Fatalf("got %q", got)
	}
	if len(got) != s2.ObjSize() {
		t.Fatalf("object size %d, want %d", len(got), s2.ObjSize())
	}
}

func TestStoreRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.db")
	s, err := CreateStore(path, 256, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteObj(o(1, 1), []byte("data"))
	s.Close()
	// Flip a byte inside page 1's payload.
	raw, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[256*2+10] ^= 0xff
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Fatal("corrupted store opened without error")
	}
}

func TestStoreBoundsChecks(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateStore(filepath.Join(dir, "s.db"), 256, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ReadPage(99); err == nil {
		t.Fatal("out-of-range page read succeeded")
	}
	if err := s.WriteObj(o(0, 9), nil); err == nil {
		t.Fatal("out-of-range slot write succeeded")
	}
	if err := s.WriteObj(o(0, 0), make([]byte, 1000)); err == nil {
		t.Fatal("oversize object write succeeded")
	}
}

func TestBasicCommitAndVisibility(t *testing.T) {
	for _, proto := range core.AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()
			c1 := attachClient(t, srv)
			defer c1.Close()
			c2 := attachClient(t, srv)
			defer c2.Close()

			tx, err := c1.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(o(0, 0), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			tx2, err := c2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx2.Read(o(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("v1")) {
				t.Fatalf("c2 read %q", got[:8])
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWriteVisibilityAfterCallback(t *testing.T) {
	for _, proto := range core.AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()
			c1 := attachClient(t, srv)
			defer c1.Close()
			c2 := attachClient(t, srv)
			defer c2.Close()

			// c2 caches the object, idle.
			tx2, _ := c2.Begin()
			if _, err := tx2.Read(o(1, 1)); err != nil {
				t.Fatal(err)
			}
			tx2.Commit()

			// c1 updates it (callback revokes c2's copy).
			tx1, _ := c1.Begin()
			if err := tx1.Write(o(1, 1), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := tx1.Commit(); err != nil {
				t.Fatal(err)
			}

			// c2 must see the new value.
			tx2b, _ := c2.Begin()
			got, err := tx2b.Read(o(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("new")) {
				t.Fatalf("stale read: %q", got[:8])
			}
			tx2b.Commit()
		})
	}
}

func TestUpdateHelper(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	c := attachClient(t, srv)
	defer c.Close()
	for i := 0; i < 5; i++ {
		tx, _ := c.Begin()
		err := tx.Update(o(2, 0), func(old []byte) []byte {
			return []byte{old[0] + 1}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := c.Begin()
	got, _ := tx.Read(o(2, 0))
	if got[0] != 5 {
		t.Fatalf("counter = %d, want 5", got[0])
	}
	tx.Commit()
}

func TestVoluntaryAbortRollsBack(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	c := attachClient(t, srv)
	defer c.Close()

	tx, _ := c.Begin()
	if err := tx.Write(o(0, 1), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := c.Begin()
	got, err := tx2.Read(o(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatalf("aborted write visible: %q", got)
		}
	}
	tx2.Commit()
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16, SyncWAL: false})
	if err != nil {
		t.Fatal(err)
	}
	c := attachClient(t, srv)
	tx, _ := c.Begin()
	tx.Write(o(5, 3), []byte("durable"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: the store was never flushed; only the WAL has the
	// update. Abandon the server without Close.
	c.Close()
	srv.mu.Lock()
	srv.wal.f.Sync()
	srv.store.closeRaw() // drop in-memory state without flushing
	srv.wal.f.Close()
	srv.closed = true
	srv.mu.Unlock()

	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: false})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	c2 := attachClient(t, srv2)
	defer c2.Close()
	tx2, _ := c2.Begin()
	got, err := tx2.Read(o(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("durable")) {
		t.Fatalf("lost committed update: %q", got[:8])
	}
	tx2.Commit()
}

func TestDeadlockVictimGetsErrAborted(t *testing.T) {
	srv, _ := testServer(t, core.PS)
	defer srv.Close()
	c1 := attachClient(t, srv)
	defer c1.Close()
	c2 := attachClient(t, srv)
	defer c2.Close()

	// Classic crossed writes under page locking: c1 reads page 0 and
	// writes page 1; c2 reads page 1 and writes page 0.
	tx1, _ := c1.Begin()
	tx2, _ := c2.Begin()
	if _, err := tx1.Read(o(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Read(o(1, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := tx1.Write(o(1, 1), []byte("a")); err != nil {
			errs[0] = err
			return
		}
		errs[0] = tx1.Commit()
	}()
	go func() {
		defer wg.Done()
		if err := tx2.Write(o(0, 1), []byte("b")); err != nil {
			errs[1] = err
			return
		}
		errs[1] = tx2.Commit()
	}()
	wg.Wait()
	aborts := 0
	for _, err := range errs {
		if errors.Is(err, ErrAborted) {
			aborts++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if aborts != 1 {
		t.Fatalf("aborts = %d, want exactly 1 (errs: %v)", aborts, errs)
	}
}

func TestConcurrentCountersSerializable(t *testing.T) {
	for _, proto := range core.AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()

			const clients = 4
			const perClient = 25
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				cl := attachClient(t, srv)
				defer cl.Close()
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					for n := 0; n < perClient; {
						tx, err := cl.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						err = tx.Update(o(0, 0), func(old []byte) []byte {
							v := uint32(old[0]) | uint32(old[1])<<8
							v++
							return []byte{byte(v), byte(v >> 8)}
						})
						if err == nil {
							err = tx.Commit()
						}
						if err == nil {
							n++
							continue
						}
						if !errors.Is(err, ErrAborted) {
							t.Errorf("unexpected error: %v", err)
							return
						}
						// Deadlock victim: retry.
					}
				}(cl)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checker := attachClient(t, srv)
			defer checker.Close()
			tx, _ := checker.Begin()
			got, err := tx.Read(o(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			v := uint32(got[0]) | uint32(got[1])<<8
			if v != clients*perClient {
				t.Fatalf("counter = %d, want %d (lost updates!)", v, clients*perClient)
			}
		})
	}
}

func TestConcurrentDistinctObjectsOnePage(t *testing.T) {
	// Fine-grained sharing: four clients each increment their own object
	// on the SAME page. Under PS this serializes; under the hybrid
	// protocols it interleaves — either way no update may be lost.
	for _, proto := range []core.Protocol{core.PS, core.PSOO, core.PSOA, core.PSAA, core.PSWT} {
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()
			const clients = 4
			const perClient = 20
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				cl := attachClient(t, srv)
				defer cl.Close()
				slot := uint16(i)
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					for n := 0; n < perClient; {
						tx, err := cl.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						err = tx.Update(o(3, slot), func(old []byte) []byte {
							return []byte{old[0] + 1}
						})
						if err == nil {
							err = tx.Commit()
						}
						if err == nil {
							n++
						} else if !errors.Is(err, ErrAborted) {
							t.Errorf("unexpected error: %v", err)
							return
						}
					}
				}(cl)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checker := attachClient(t, srv)
			defer checker.Close()
			tx, _ := checker.Begin()
			for s := uint16(0); s < clients; s++ {
				got, err := tx.Read(o(3, s))
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != perClient {
					t.Fatalf("slot %d = %d, want %d", s, got[0], perClient)
				}
			}
			tx.Commit()
		})
	}
}

func TestClientDisconnectReleasesState(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	c1 := attachClient(t, srv)
	c2 := attachClient(t, srv)
	defer c2.Close()

	// c1 caches a page then vanishes mid-transaction.
	tx1, _ := c1.Begin()
	if _, err := tx1.Read(o(4, 0)); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// c2's write would need a callback to c1; the disconnect must have
	// cleaned its copies so this completes rather than hanging.
	done := make(chan error, 1)
	go func() {
		tx2, err := c2.Begin()
		if err != nil {
			done <- err
			return
		}
		if err := tx2.Write(o(4, 0), []byte("x")); err != nil {
			done <- err
			return
		}
		done <- tx2.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeoutChan(t):
		t.Fatal("write hung after client disconnect")
	}
}

func TestServerStatsExposed(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	c := attachClient(t, srv)
	defer c.Close()
	tx, _ := c.Begin()
	tx.Write(o(0, 0), []byte("x"))
	tx.Commit()
	st := srv.Stats()
	if st.WriteReqs == 0 || st.Commits == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SyncOnCommit = false
	rec := &walRecord{Txn: 1, Client: 1, Commit: true,
		Objs: []core.ObjID{o(0, 0)}, Images: [][]byte{[]byte("a")}}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	// Append garbage simulating a torn write.
	if _, err := w.f.WriteAt([]byte{0xde, 0xad, 0xbe}, w.off); err != nil {
		t.Fatal(err)
	}
	w.Close()

	f, _ := openFile(path)
	var recs []*walRecord
	_, err = scanWAL(f, collectInto(&recs))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Txn != 1 {
		t.Fatalf("recovered %d records", len(recs))
	}
}

// TestSessionTxnIDsSurvive257Sessions: session ids only grow, and the
// engine keys transactions by TxnID alone, so two sessions whose ids
// differ by a multiple of 256 must not be able to mint the same id — which
// they could while only the low byte named the session.
func TestSessionTxnIDsSurvive257Sessions(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	clients := make([]*Client, 257)
	for i := range clients {
		clients[i] = attachClient(t, srv)
		defer clients[i].Close()
	}
	// The reclustering planner's session, when there is one, attached
	// first, so the test's own sessions are numbered from 2.
	first, last := clients[0], clients[256]
	if last.ID() != first.ID()+256 {
		t.Fatalf("session ids %d and %d, want ids 256 apart", first.ID(), last.ID())
	}
	// The same instant and the same history: only the session part of the
	// id can tell the two apart.
	for _, now := range []int64{0, 255, 256, 1<<16 - 1, 1 << 16, 1<<40 + 12345, time.Now().UnixNano()} {
		if a, b := nextTxnID(now, first.ID(), 0), nextTxnID(now, last.ID(), 0); a == b {
			t.Fatalf("sessions %d and %d both mint txn id %#x at t=%d", first.ID(), last.ID(), a, now)
		}
	}
	// And Begin is what mints them.
	for _, c := range []*Client{first, last} {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		id := c.cs.Txn
		c.mu.Unlock()
		if core.ClientID(id&0xffff) != c.ID() {
			t.Fatalf("session %d began txn %#x: low 16 bits do not name the session", c.ID(), id)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateIsOneRequest: a read-modify-write of an object the transaction
// may not yet write costs one server request under every protocol — write
// permission with the value, as the simulator asks — and, under
// page-granularity copy tracking, a grant that finds the cached copy stale
// still refetches it before fn sees the value.
func TestUpdateIsOneRequest(t *testing.T) {
	for _, proto := range core.Protocols {
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()
			cl := attachClient(t, srv)
			defer cl.Close()
			requests := func() int64 {
				st := srv.Stats()
				return st.ReadReqs + st.WriteReqs
			}
			tx, err := cl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			before := requests()
			if err := tx.Update(o(3, 1), func(old []byte) []byte { return []byte("updated") }); err != nil {
				t.Fatal(err)
			}
			if n := requests() - before; n != 1 {
				t.Fatalf("a cold Update made %d server requests, want 1", n)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, proto := range []core.Protocol{core.PSOA, core.PSAA} {
		t.Run(proto.String()+"/StaleGrantRefetches", func(t *testing.T) { updateStaleGrant(t, proto) })
	}
}

// TestLiveHitAllocatesNothing is core's TestReadOnlyTxnAllocatesNothing
// through a live pipe client. Over a warm cache a read-only transaction of
// 120 reads allocates its Txn handle and nothing else: Read returns a view
// and a read-only commit sends nothing. An Update under a page grant the
// transaction holds allocates nothing at all: fn's copy of the value lives
// in a buffer the client reuses.
func TestLiveHitAllocatesNothing(t *testing.T) {
	srv, err := openServer(t.TempDir(), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 128, SyncWAL: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := attachClient(t, srv) // caches 32 pages
	defer cl.Close()

	readOnly := func() {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for p := core.PageID(0); p < 30; p++ {
			for slot := uint16(0); slot < 4; slot++ {
				if _, err := tx.Read(o(p, slot)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	readOnly() // warms the cache
	if n := testing.AllocsPerRun(100, readOnly); n > 1 {
		t.Errorf("a warm read-only transaction allocates %v times, want 1 (its Txn)", n)
	}

	bump := func(old []byte) []byte {
		old[0]++
		return old
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(o(1, 0), bump); err != nil { // takes page 1's write grant
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := tx.Update(o(1, 1), bump); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("an Update under a held page grant allocates %v times, want 0", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// handServer is the server end of a pipe that a test plays by hand, with a
// client connected to it: 8 pages of four 8-byte objects.
type handServer struct {
	t   *testing.T
	end Conn
	cl  *Client
}

const handOPP, handObjSize = 4, 8

func newHandServer(t *testing.T, proto core.Protocol) *handServer {
	cEnd, sEnd := Pipe()
	t.Cleanup(func() { sEnd.Close() })
	if err := sEnd.Send(&core.Msg{Kind: core.MHello, HelloID: 1, HelloPages: 8,
		HelloObjsPP: handOPP, HelloObjSize: handObjSize, HelloProto: proto}); err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(cEnd, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &handServer{t, sEnd, cl}
}

// page is a page's bytes, every one of them fill.
func (h *handServer) page(fill byte) []byte {
	return bytes.Repeat([]byte{fill}, handOPP*handObjSize)
}

// expect receives the client's next message, which must be of kind.
func (h *handServer) expect(kind core.MsgKind) *core.Msg {
	h.t.Helper()
	m := recvWithin(h.t, h.end, 5*time.Second)
	if m.Kind != kind {
		h.t.Fatalf("client sent %v, want %v", m.Kind, kind)
	}
	return m
}

func (h *handServer) reply(m *core.Msg) {
	h.t.Helper()
	if err := h.end.Send(m); err != nil {
		h.t.Fatal(err)
	}
}

// fetch has tx read o, answering its read request with a page of fill.
func (h *handServer) fetch(tx *Txn, ob core.ObjID, fill byte) {
	h.t.Helper()
	read := make(chan error, 1)
	go func() {
		_, err := tx.Read(ob)
		read <- err
	}()
	req := h.expect(core.MReadReq)
	h.reply(&core.Msg{Kind: core.MPageData, Req: req.Req, Page: ob.Page, Obj: req.Obj, Data: h.page(fill)})
	if err := <-read; err != nil {
		h.t.Fatal(err)
	}
}

// staleGrant answers the write request an Update of ob just sent the way
// that makes the grant stale (see updateStaleGrant), and the refetch that
// follows with a page of fill. seen is where fn reports what it was lent.
func (h *handServer) staleGrant(ob core.ObjID, fill byte, seen <-chan []byte) {
	h.t.Helper()
	wr := h.expect(core.MWriteReq)
	if wr.WantData {
		h.t.Fatal("write request for a readable cached object asks for the data")
	}
	h.reply(&core.Msg{Kind: core.MCallback, Req: 77, CB: core.CBAdaptive, Page: ob.Page, Obj: ob})
	if ack := h.expect(core.MCallbackAck); ack.Purged || ack.Busy {
		h.t.Fatalf("callback answered purged=%v busy=%v, want the page kept and the object given up", ack.Purged, ack.Busy)
	}
	h.reply(&core.Msg{Kind: core.MGrant, Req: wr.Req, Grant: core.GrantObject, Page: ob.Page, Obj: ob})
	rr := h.expect(core.MReadReq)
	select {
	case old := <-seen:
		h.t.Fatalf("fn saw the stale copy %q before the refetch", old)
	default:
	}
	h.reply(&core.Msg{Kind: core.MPageData, Req: rr.Req, Page: ob.Page, Obj: ob, Data: h.page(fill)})
}

// abortYou delivers a deadlock verdict on the client's active transaction
// and waits for the client to roll it back.
func (h *handServer) abortYou() {
	h.t.Helper()
	h.cl.mu.Lock()
	txn := h.cl.cs.Txn
	h.cl.mu.Unlock()
	h.reply(&core.Msg{Kind: core.MAbortYou, Txn: txn})
	h.expect(core.MAbortReq)
}

// cached returns a copy of what the client caches for page p.
func (h *handServer) cached(p core.PageID) []byte {
	h.cl.mu.Lock()
	defer h.cl.mu.Unlock()
	return copyOf(pageBytes(h.cl.cs.Cache.Page(p)))
}

// updateStaleGrant plays the server by hand for the one interleaving that
// makes a write grant stale: the client asks for write permission on an
// object it holds a readable copy of, an adaptive callback for that object
// overtakes the grant (another writer got there first), and the server —
// tracking copies by page — grants without the data. Then the same on
// another page with an fn that edits old in place while a deadlock verdict
// lands: the Write fails, and the edit must not have reached the cache.
func updateStaleGrant(t *testing.T, proto core.Protocol) {
	h := newHandServer(t, proto)
	tx, err := h.cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	h.fetch(tx, o(2, 0), 'a')
	seen := make(chan []byte, 1)
	done := make(chan error, 1)
	go func() {
		done <- tx.Update(o(2, 1), func(old []byte) []byte {
			seen <- copyOf(old) // lent for the call only
			return []byte("new")
		})
	}()
	h.staleGrant(o(2, 1), 'b', seen)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if old := <-seen; !bytes.Equal(old, h.page('b')[:handObjSize]) {
		t.Fatalf("fn saw %q, want the refetched value", old)
	}

	h.fetch(tx, o(3, 0), 'c')
	resume := make(chan struct{})
	go func() {
		done <- tx.Update(o(3, 1), func(old []byte) []byte {
			seen <- copyOf(old)
			old[0] = '!'
			<-resume
			return old
		})
	}()
	h.staleGrant(o(3, 1), 'd', seen)
	<-seen // fn is running
	h.abortYou()
	close(resume)
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("Update whose transaction was aborted inside fn = %v, want ErrAborted", err)
	}
	if got := h.cached(3); !bytes.Equal(got, h.page('d')) {
		t.Fatalf("fn's edit of old reached the cache: page 3 holds %q", got)
	}
}

// TestVerdictBetweenCalls: a deadlock verdict can land while the victim is
// not waiting on the server, between two calls. The next call returns
// ErrAborted — a Read even of a cached object, a Commit even of a read-only
// transaction — and Abort is a no-op.
func TestVerdictBetweenCalls(t *testing.T) {
	h := newHandServer(t, core.PSAA)
	tx, err := h.cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	h.fetch(tx, o(2, 0), 'a')
	h.abortYou()
	if _, err := tx.Read(o(2, 1)); !errors.Is(err, ErrAborted) {
		t.Fatalf("Read after the verdict = %v, want ErrAborted", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort after the verdict = %v", err)
	}

	tx, err = h.cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(o(2, 0)); err != nil { // a hit
		t.Fatal(err)
	}
	h.abortYou()
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit after the verdict = %v, want ErrAborted", err)
	}
}
