package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
)

// TestFrameDirectEncodingMatchesAppendMsg: a data grant encoded straight
// from the store is, byte for byte, the frame of the same message with
// Data filled in — so a client built before the frame-direct encoder still
// talks to this server.
func TestFrameDirectEncodingMatchesAppendMsg(t *testing.T) {
	st, err := CreateStore(filepath.Join(t.TempDir(), "data.db"), 256, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for slot := uint16(0); slot < 4; slot++ {
		if err := st.WriteObj(o(3, slot), bytes.Repeat([]byte{byte(0xA0 + slot)}, 40+int(slot))); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		m    core.Msg
	}{
		{"page", core.Msg{Kind: core.MPageData, To: 3, Txn: 77, Req: 12, Page: 3, Obj: o(3, 1),
			Grant: core.GrantPage, Unavail: []uint16{1, 3}, Epoch: 9}},
		{"untouched page", core.Msg{Kind: core.MPageData, To: 1, Req: 1, Page: 7}},
		{"object", core.Msg{Kind: core.MObjData, To: 2, Txn: 5, Req: 8, Page: 3, Obj: o(3, 2), Grant: core.GrantObject}},
		{"untouched object", core.Msg{Kind: core.MObjData, To: 2, Req: 9, Page: 2, Obj: o(2, 3)}},
	}
	for _, tc := range cases {
		direct, err := appendMsgFrame(nil, &tc.m, st)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		filled := tc.m
		if tc.m.Kind == core.MPageData {
			filled.Data, err = st.ReadPage(tc.m.Page)
		} else {
			filled.Data, err = st.ReadObj(tc.m.Obj)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := appendMsg(nil, &filled)
		want := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
		if !bytes.Equal(direct, want) {
			t.Errorf("%s: frame-direct encoding differs from appendMsg's:\n got %x\nwant %x", tc.name, direct, want)
		}
		// A second frame lands behind the first without disturbing it.
		two, err := appendMsgFrame(direct, &tc.m, st)
		if err != nil || !bytes.Equal(two[:len(want)], want) || !bytes.Equal(two[len(want):], want) {
			t.Errorf("%s: appending a second frame: err %v", tc.name, err)
		}
	}
	if _, err := appendMsgFrame(nil, &core.Msg{Kind: core.MPageData, Page: 99}, st); err == nil {
		t.Error("a grant for a page outside the store encoded without error")
	}

	// The same holds for what a session actually puts on its connection,
	// whichever way it ships: the grant a client receives re-encodes, Data
	// and all, to the very bytes that arrived (a pipe hands the message
	// over unencoded, so there it is the payload that is checked).
	for _, tr := range sessionTransports {
		t.Run(tr.name, func(t *testing.T) {
			h := newSessionHarness(t, tr.transport, ServerOptions{})
			defer h.srv.Close()
			for slot := uint16(0); slot < 4; slot++ {
				if err := h.srv.store.WriteObj(o(3, slot), bytes.Repeat([]byte{byte(0xB0 + slot)}, 30+int(slot))); err != nil {
					t.Fatal(err)
				}
			}
			want, err := h.srv.store.ReadPage(3)
			if err != nil {
				t.Fatal(err)
			}
			var m *core.Msg
			if h.addr == "" {
				conn, _ := h.rawSession(t)
				defer conn.Close()
				if err := conn.Send(readReq(3, 1)); err != nil {
					t.Fatal(err)
				}
				m = recvWithin(t, conn, 5*time.Second)
			} else {
				nc, err := net.Dial("tcp", h.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(5 * time.Second))
				req, _ := appendMsgFrame([]byte{wireVersion}, readReq(3, 1), nil)
				if _, err := nc.Write(req); err != nil {
					t.Fatal(err)
				}
				var body []byte
				for i := 0; i < 2; i++ { // the hello, then the grant
					var hdr [4]byte
					if _, err := io.ReadFull(nc, hdr[:]); err != nil {
						t.Fatal(err)
					}
					body = make([]byte, binary.LittleEndian.Uint32(hdr[:]))
					if _, err := io.ReadFull(nc, body); err != nil {
						t.Fatal(err)
					}
				}
				if m, err = decodeMsg(body); err != nil {
					t.Fatal(err)
				}
				if again := appendMsg(nil, m); !bytes.Equal(again, body) {
					t.Errorf("the grant's frame is not appendMsg's encoding of it:\n got %x\nwant %x", body, again)
				}
			}
			if m.Kind != core.MPageData || m.Req != 1 || !bytes.Equal(m.Data, want) {
				t.Errorf("got %v req %d with %d payload bytes, want page 3's grant carrying the store's page", m.Kind, m.Req, len(m.Data))
			}
		})
	}
}

// sendFailConn delivers a hello and then fails every Send, like a socket
// whose peer is gone; Recv parks until Close.
type sendFailConn struct {
	hello  chan *core.Msg
	closed chan struct{}
	once   sync.Once
}

func newSendFailConn() *sendFailConn {
	c := &sendFailConn{hello: make(chan *core.Msg, 1), closed: make(chan struct{})}
	c.hello <- &core.Msg{Kind: core.MHello, HelloID: 1, HelloPages: 8, HelloObjsPP: 4, HelloObjSize: 16, HelloProto: core.PSAA}
	return c
}

func (c *sendFailConn) Send(*core.Msg) error { return errors.New("write: broken pipe") }

func (c *sendFailConn) Recv() (*core.Msg, error) {
	select {
	case m := <-c.hello:
		return m, nil
	case <-c.closed:
		return nil, io.EOF
	}
}

func (c *sendFailConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestSendFailureFailsRequest: sends write through, so a request that
// could not be written fails there and then — with no RequestTimeout to
// rescue it — and takes the session with it: the client closes, or, with a
// Redial policy, reconnects.
func TestSendFailureFailsRequest(t *testing.T) {
	read := func(t *testing.T, cl *Client) error {
		t.Helper()
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := tx.Read(o(1, 0))
			errCh <- err
		}()
		select {
		case err := <-errCh:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("Read parked on a request whose Send failed")
			return nil
		}
	}

	t.Run("closes", func(t *testing.T) {
		cl, err := Connect(newSendFailConn(), ClientOptions{RequestTimeout: 0})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := read(t, cl); !errors.Is(err, ErrClosed) {
			t.Fatalf("Read = %v, want ErrClosed", err)
		}
		if _, err := cl.Begin(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Begin after the failed send = %v, want ErrClosed", err)
		}
	})

	t.Run("reconnects", func(t *testing.T) {
		srv, _ := testServer(t, core.PSAA)
		defer srv.Close()
		cl, err := Connect(newSendFailConn(), ClientOptions{
			Retry: RetryPolicy{BaseDelay: time.Millisecond},
			Redial: func() (Conn, error) {
				cEnd, sEnd := Pipe()
				_, err := srv.Attach(sEnd)
				return cEnd, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := read(t, cl); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("Read = %v, want ErrDisconnected", err)
		}
		if err := read(t, cl); err != nil { // Begin waits out the reconnect
			t.Fatalf("Read on the re-dialed session: %v", err)
		}
	})
}

// genValue is an object holding generation g in every 8-byte word, so a
// torn or half-installed object cannot pass for any generation.
func genValue(size int, g uint64) []byte {
	v := make([]byte, size)
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(v[i:], g)
	}
	return v
}

// wholeGen returns the generation v holds, or false if its words disagree.
func wholeGen(v []byte) (uint64, bool) {
	g := binary.LittleEndian.Uint64(v)
	for i := 8; i+8 <= len(v); i += 8 {
		if binary.LittleEndian.Uint64(v[i:]) != g {
			return 0, false
		}
	}
	return g, true
}

// TestFetchNeverTorn: one session rewrites slots 1-3 of a page with the
// next generation, over and over, while two other sessions keep fetching the
// page cold (a one-page cache they evict it from between reads) through
// slot 0, which nobody writes — so the grant waits for no lock and the
// server copies the page out of the store's frame as the grant ships,
// concurrently with the writer's installs, on every transport. Every object
// a reader sees must be whole, slots 1-3 of one transaction's view the same
// generation, and that generation no older than the last commit that had
// been acknowledged before the reader asked. The readers' one cached page
// gives its buffer back on every eviction (on a pipe the server's next copy
// of the page lands in it), so they also check, as each transaction ends,
// that none of the views Read returned in it changed. Run under -race.
func TestFetchNeverTorn(t *testing.T) {
	for _, tr := range sessionTransports {
		t.Run(tr.name, func(t *testing.T) { fetchNeverTorn(t, tr.transport) })
	}
}

func fetchNeverTorn(t *testing.T, transport string) {
	const page, other = 5, 6
	h := newSessionHarness(t, transport, ServerOptions{PageSize: 4096, ObjsPerPage: 4, NumPages: 16})
	defer h.srv.Close()
	dial := func(cache int) *Client {
		cl, err := Connect(h.dial(t), ClientOptions{CachePages: cache})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	writer := dial(4)
	defer writer.Close()
	size := writer.ObjSize()

	commits := 400
	if testing.Short() {
		commits = 100
	}
	var acked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		reader := dial(1)
		defer reader.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// view reads the page's four slots in one transaction.
			view := func(floor uint64) error {
				tx, err := reader.Begin()
				if err != nil {
					return err
				}
				var held [4]keptRead
				var gen uint64
				for slot := uint16(0); slot < 4; slot++ {
					v, err := tx.Read(o(page, slot))
					if err != nil {
						return err
					}
					held[slot] = keptRead{v, copyOf(v)}
					g, whole := wholeGen(v)
					switch {
					case !whole:
						t.Errorf("slot %d: torn object %x…", slot, v[:24])
					case slot == 0 && g != 0:
						t.Errorf("slot 0 holds %d, but nobody writes it", g)
					case slot > 1 && g != gen:
						t.Errorf("slot %d at generation %d, slot 1 at %d in one transaction", slot, g, gen)
					case slot > 0 && g < floor:
						t.Errorf("slot %d at generation %d, but %d was acknowledged before the request", slot, g, floor)
					}
					gen = g
				}
				if err := tx.Commit(); err != nil {
					return err
				}
				for slot, k := range held {
					if !bytes.Equal(k.got, k.want) {
						t.Errorf("slot %d: the view Read returned changed before the next Begin", slot)
					}
				}
				return nil
			}
			// evict reads another page, so the next view fetches cold.
			evict := func() error {
				tx, err := reader.Begin()
				if err != nil {
					return err
				}
				if _, err := tx.Read(o(other, 0)); err != nil {
					return err
				}
				return tx.Commit()
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := view(acked.Load())
				if err == nil {
					err = evict()
				}
				if err != nil && !errors.Is(err, ErrAborted) {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := uint64(1); g <= uint64(commits) && !t.Failed(); g++ {
		tx, err := writer.Begin()
		if err != nil {
			t.Fatal(err)
		}
		val := genValue(size, g)
		for slot := uint16(1); slot < 4 && err == nil; slot++ {
			err = tx.Write(o(page, slot), val)
		}
		if err == nil {
			err = tx.Commit()
		}
		switch {
		case errors.Is(err, ErrAborted):
			g-- // deadlock victim: same generation again
		case err != nil:
			t.Fatal(err)
		default:
			acked.Store(g)
		}
	}
	close(stop)
	wg.Wait()
}

// keptRead is a view Read returned, held on to, and what it held then.
type keptRead struct{ got, want []byte }

// TestReadResultSurvivesBufferRecycle: a client gives the buffer of every
// page its cache evicts back to its connection — a socket lands the next
// fetched payload in it, a pipe has the server copy the next page into it.
// No live view may point into such a buffer: the views Read returned in a
// transaction still hold what they held when it ends, and afterimages
// collected for a commit still hold theirs after their page was evicted
// and its buffer reused, many times over.
func TestReadResultSurvivesBufferRecycle(t *testing.T) {
	for _, tr := range sessionTransports {
		t.Run(tr.name, func(t *testing.T) { readResultSurvivesBufferRecycle(t, tr.transport) })
	}
}

func readResultSurvivesBufferRecycle(t *testing.T, transport string) {
	const pages, cache = 8, 2
	h := newSessionHarness(t, transport, ServerOptions{PageSize: 4096, ObjsPerPage: 4, NumPages: pages})
	defer h.srv.Close()
	cl, err := Connect(h.dial(t), ClientOptions{CachePages: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	size := cl.ObjSize()

	// Every object gets a value of its own, committed two pages at a time.
	value := func(p, slot int) []byte { return genValue(size, uint64(p)<<8|uint64(slot)) }
	for p := 0; p < pages; p += cache {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for q := p; q < p+cache; q++ {
			for slot := 0; slot < 4; slot++ {
				if err := tx.Write(o(core.PageID(q), uint16(slot)), value(q, slot)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if p == 0 {
			// Afterimages as Commit collects them, kept past the commit.
			cl.mu.Lock()
			images := cl.collectUpdates()
			cl.mu.Unlock()
			defer func() {
				for ob, img := range images {
					if want := value(int(ob.Page), int(ob.Slot)); !bytes.Equal(img, want) {
						t.Errorf("afterimage of %v changed after its page's buffer was recycled", ob)
					}
				}
			}()
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// dropped is the buffer the cache let go of during the latest fetch: the
	// reply was already made when its install evicted that page, so it is the
	// NEXT fetch that must land there.
	var dropped *byte
	cl.mu.Lock()
	recycle := cl.cs.Cache.OnDrop
	cl.cs.Cache.OnDrop = func(payload any, pinned bool) {
		if buf, ok := payload.([]byte); ok {
			dropped = &buf[0]
		}
		recycle(payload, pinned)
	}
	cl.mu.Unlock()

	buffers := make(map[*byte]bool) // distinct page buffers the cache ever held
	installs := 0
	for round := 0; round < 4; round++ {
		for p := 0; p < pages; p += cache {
			tx, err := cl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			var held []keptRead
			for q := p; q < p+cache; q++ {
				slot := (q + round) % 4
				cl.mu.Lock()
				spare := dropped // by the previous fetch's install
				cl.mu.Unlock()
				got, err := tx.Read(o(core.PageID(q), uint16(slot)))
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, keptRead{got, value(q, slot)})
				cl.mu.Lock()
				buf := &pageBytes(cl.cs.Cache.Page(core.PageID(q)))[0]
				cl.mu.Unlock()
				if installs > 0 && buf != spare {
					t.Fatalf("install %d went into a buffer other than the one the cache had just dropped", installs)
				}
				buffers[buf] = true
				installs++
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for i, k := range held {
				if !bytes.Equal(k.got, k.want) {
					t.Fatalf("round %d page %d: view %d changed before the next Begin", round, p, i)
				}
			}
		}
	}
	// The cycle really did reuse buffers: far fewer distinct ones than
	// installs (without recycling every install allocates its own).
	if len(buffers) > installs/4 {
		t.Errorf("%d installs went through %d distinct buffers; recycling is not happening", installs, len(buffers))
	}
}

// TestReadViewStableUntilTxnEnd: Read returns a view into the cached page,
// and while its transaction runs the page's buffer can leave the cache — a
// read of an object an adaptive callback took back refetches the page into
// a new buffer, a deadlock abort purges the pages the victim wrote and, as
// it discharges the callbacks it deferred, those it only read. None may
// reach a view before the next Begin: it keeps its bytes, and the buffer it
// points into is not the connection's spare, where the next fetched
// payload lands, until that Begin hands it back. Run under -race.
func TestReadViewStableUntilTxnEnd(t *testing.T) {
	for _, tr := range sessionTransports {
		t.Run(tr.name, func(t *testing.T) { readViewStable(t, tr.transport) })
	}
}

func readViewStable(t *testing.T, transport string) {
	const p, q, r = 2, 3, 4
	h := newSessionHarness(t, transport, ServerOptions{})
	defer h.srv.Close()
	a, b := h.client(t), h.client(t)
	defer a.Close()
	defer b.Close()
	size := a.ObjSize()
	begin := func(cl *Client) *Txn {
		t.Helper()
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func(tx *Txn, ob core.ObjID) keptRead {
		t.Helper()
		v, err := tx.Read(ob)
		must(err)
		if cap(v) != len(v) {
			t.Fatalf("view of %v has capacity %d beyond its %d bytes", ob, cap(v), len(v))
		}
		return keptRead{v, copyOf(v)}
	}
	stable := func(when string, views ...keptRead) {
		t.Helper()
		spare := spareOf(a)
		for i, k := range views {
			if !bytes.Equal(k.got, k.want) {
				t.Fatalf("%s: view %d changed", when, i)
			}
			if shares(spare, k.got) {
				t.Fatalf("%s: view %d points into the connection's spare buffer", when, i)
			}
		}
	}
	handedBack := func(views ...keptRead) {
		t.Helper()
		spare := spareOf(a)
		for _, k := range views {
			if shares(spare, k.got) {
				return
			}
		}
		t.Fatal("Begin did not hand a held buffer back to the connection")
	}

	tx := begin(b)
	for slot := uint16(0); slot < 4; slot++ {
		must(tx.Write(o(p, slot), genValue(size, uint64(slot))))
		must(tx.Write(o(q, slot), genValue(size, uint64(10+slot))))
	}
	must(tx.Commit())

	// An adaptive callback, then a refetch, under a view of the page.
	tx = begin(a)
	v := read(tx, o(p, 0))
	btx := begin(b)
	must(btx.Write(o(p, 1), genValue(size, 99))) // calls back a's copy of o(p, 1)
	must(btx.Commit())
	stable("after the adaptive callback", v)
	if w := read(tx, o(p, 1)); !bytes.Equal(w.got, genValue(size, 99)) {
		t.Fatal("the refetch did not bring the committed value")
	}
	a.mu.Lock()
	refetched := &pageBytes(a.cs.Cache.Page(p))[0] != &v.got[0]
	a.mu.Unlock()
	if !refetched {
		t.Fatal("reading the called-back object did not refetch the page")
	}
	stable("after the refetch", v)
	must(tx.Commit())
	stable("after the commit", v)

	// A deadlock abort under views: it purges q, which the victim wrote,
	// and then p, which it only read, by discharging the callback it
	// deferred on p. b begins first, so a, the younger, is the victim.
	btx = begin(b)
	time.Sleep(time.Millisecond) // transaction ids are start-ordered to 65 µs
	tx = begin(a)
	handedBack(v)
	must(tx.Write(o(q, 0), genValue(size, 7)))
	v = read(tx, o(q, 1))
	vp := read(tx, o(p, 2))
	must(btx.Write(o(r, 0), genValue(size, 8)))
	bDone := make(chan error, 1)
	go func() { bDone <- btx.Write(o(p, 2), genValue(size, 9)) }() // a answers busy
	if err := tx.Write(o(r, 0), genValue(size, 10)); !errors.Is(err, ErrAborted) {
		t.Fatalf("deadlock victim's write = %v, want ErrAborted", err)
	}
	stable("after the abort", v, vp)
	must(<-bDone)
	must(btx.Commit())
	stable("after the survivor's commit", v, vp)
	begin(a).Abort()
	handedBack(v, vp)
}

// spareOf returns the buffer cl's connection holds for the next payload.
func spareOf(cl *Client) []byte {
	cl.mu.Lock()
	conn := cl.conn
	cl.mu.Unlock()
	var s *spareBuf
	switch c := conn.(type) {
	case *chanConn:
		s = &c.spareBuf
	case *tcpConn:
		s = &c.spareBuf
	default:
		panic(fmt.Sprintf("no spare buffer on a %T", conn))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf
}

// shares reports whether a and b overlap in memory, capacity included.
func shares(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

// TestObjectSizedSpareNeverHoldsAPage: under OS the buffers a client gives
// back are object-sized. A page that ships down the same pipe is not cut to
// fit one — it gets a buffer of its own and the spare stays for the next
// object, which does land in it.
func TestObjectSizedSpareNeverHoldsAPage(t *testing.T) {
	srv, err := openServer(t.TempDir(), ServerOptions{
		Proto: core.OS, PageSize: 4096, ObjsPerPage: 4, NumPages: 16, SyncWAL: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(cEnd, ClientOptions{CachePages: 1}) // four objects
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	read := func(ob core.ObjID) {
		t.Helper()
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(ob); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 5; p++ { // one more than the cache holds
		read(o(core.PageID(p), 0))
	}
	pipe := cEnd.(*chanConn)
	spare := func() []byte {
		pipe.spareBuf.mu.Lock()
		defer pipe.spareBuf.mu.Unlock()
		return pipe.spareBuf.buf
	}
	before := spare()
	if cap(before) != cl.ObjSize() {
		t.Fatalf("spare of %d bytes after an eviction, want an object's %d", cap(before), cl.ObjSize())
	}

	// A page grant nobody asked for: the client ignores it, but the session
	// reads the page to ship it.
	sess := srv.sessionOf(cl.ID())
	sess.push(&core.Msg{Kind: core.MPageData, To: sess.id, Page: 9}, false, 0)
	sess.pump() // what the stager of a pipe session's output does

	if after := spare(); len(after) == 0 || &after[:1][0] != &before[:1][0] {
		t.Fatal("a page-sized payload took the object-sized spare")
	}

	read(o(5, 0))
	cl.mu.Lock()
	landed := cl.objValue(o(5, 0))
	cl.mu.Unlock()
	if &landed[0] != &before[:1][0] {
		t.Fatal("the next object did not land in the spare")
	}
}
