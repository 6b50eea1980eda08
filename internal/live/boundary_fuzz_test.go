package live

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzSessionBoundary turns its input into messages that two raw pipe
// sessions send while a correct client runs transactions. Each 8-byte
// record is one message (boundarySessions.msg), its fields drawn from
// everything a remote client can put on the wire: every message kind and
// some past either end, pages and slots past the layout, images past the
// slot size, and the transaction and callback-round ids the sessions have
// seen.
// Whatever the sequence: nothing panics, the server does not fail, the
// correct client commits every transaction once the raw sessions are gone,
// and the directory reopens with the values committed. The seeds are the
// five messages that core.ServerEngine.Fits and Admit were written to
// refuse.
func FuzzSessionBoundary(f *testing.F) {
	for _, seed := range [][]byte{
		// A write grant's kind, then kind -1.
		{0, 9, 1, 1, 0, 0, 0, 0},
		{0, 0, 1, 1, 0, 0, 0, 0},
		// A write of 1.0, then a commit that logs 2.0, never locked.
		{0, 2, 1, 1, 0, 0, 0, 0, 0, 3, 1, 2, 0, 0, 4, 4},
		// Session 0 caches page 2, session 1's write of 2.1 calls it back,
		// and session 1 answers round 1 itself.
		{0, 1, 1, 2, 0, 0, 0, 0, 1, 2, 1, 2, 1, 0, 0, 0, 0x25, 5, 0, 2, 1, 1, 0, 0},
		// Session 0 holds page 1, session 1's read asks it to de-escalate,
		// and its reply names 5.0.
		{0, 2, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 6, 1, 1, 0, 0, 0x43, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 8*64 {
			in = in[:8*64]
		}
		dir := t.TempDir()
		opts := ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 8}
		srv, err := openServer(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { srv.Close() }()

		cl := attachClient(t, srv)
		done := make(chan error, 1)
		go func() { done <- boundaryCounters(cl, 6) }()

		b := boundarySessions{granted: map[boundaryLock]bool{}, uncovered: map[boundaryTxn][]core.ObjID{}}
		for ; len(in) >= 8; in = in[8:] {
			s := int(in[0] & 1)
			if b.conns[s] == nil {
				b.dial(t, srv, s)
			}
			if err := b.conns[s].Send(b.msg(s, in)); err != nil {
				b.conns[s].Close()
				b.conns[s] = nil
			}
		}
		b.close()

		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("the correct client: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("the correct client made no progress after the raw sessions left")
		}
		if err := srv.Failed(); err != nil {
			t.Fatalf("server failed: %v", err)
		}
		b.mu.Lock()
		unlocked := b.unlocked
		b.mu.Unlock()
		if len(unlocked) > 0 {
			t.Fatalf("commits acknowledged with writes no grant covered: %v", unlocked)
		}
		want := boundaryValues(t, cl, opts)
		cl.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if srv, err = openServer(dir, opts); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		cl = attachClient(t, srv)
		defer cl.Close()
		if got := boundaryValues(t, cl, opts); !bytes.Equal(got, want) {
			t.Fatalf("reopened with\n%q, committed\n%q", got, want)
		}
	})
}

// boundaryCounters runs n transactions that each increment a counter on
// pages 3 to 5, replaying a deadlock victim. The seeds stay on pages 1 and
// 2, so their callback rounds are the first ones.
func boundaryCounters(cl *Client, n int) error {
	inc := func(old []byte) []byte { return []byte{old[0] + 1} }
	for i := 0; i < n; i++ {
		for try := 0; ; try++ {
			tx, err := cl.Begin()
			if err != nil {
				return err
			}
			for p := core.PageID(3); p <= 5 && err == nil; p++ {
				err = tx.Update(o(p, 3), inc)
			}
			if err == nil {
				err = tx.Commit()
			} else if !errors.Is(err, ErrAborted) {
				tx.Abort()
			}
			if err == nil {
				break
			}
			if !errors.Is(err, ErrAborted) || try == 100 {
				return err
			}
		}
	}
	return nil
}

// boundaryValues reads every object of the database in one transaction.
func boundaryValues(t *testing.T, cl *Client, opts ServerOptions) []byte {
	t.Helper()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for p := 0; p < opts.NumPages; p++ {
		for s := 0; s < opts.ObjsPerPage; s++ {
			v, err := tx.Read(o(core.PageID(p), uint16(s)))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, v...)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return all
}

// boundarySessions are FuzzSessionBoundary's two raw sessions and the
// transaction and round ids that reached them.
type boundarySessions struct {
	conns  [2]Conn
	mu     sync.Mutex
	txns   []core.TxnID
	rounds []int64
	// granted holds the write grants each session's transactions hold, a
	// page grant with slot pageGrant; uncovered holds what each
	// transaction's last commit logs or names that no grant covered when it
	// was sent, and unlocked what of that an acknowledged commit wrote.
	granted   map[boundaryLock]bool
	uncovered map[boundaryTxn][]core.ObjID
	unlocked  []boundaryLock
}

// boundaryTxn is transaction txn as raw session s names it.
type boundaryTxn struct {
	s   int
	txn core.TxnID
}

type boundaryLock struct {
	boundaryTxn
	obj core.ObjID
}

const pageGrant = 0xffff

// dial opens raw session s, whose predecessor's transactions and grants
// ended with it. A receiver on its end notes the ids the server sends, so
// a Send is handled, and what it sends out delivered, by the time it
// returns: the messages of the two sessions reach the engine in the order
// of the input.
func (b *boundarySessions) dial(t *testing.T, srv *Server, s int) {
	b.mu.Lock()
	b.end(func(l boundaryTxn) bool { return l.s == s })
	b.mu.Unlock()
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatal(err)
	}
	b.conns[s] = cEnd
	cEnd.(*chanConn).setReceiver(func(m *core.Msg, err error) {
		if err != nil {
			return
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if m.Txn != core.NoTxn && len(b.txns) < 16 {
			b.txns = append(b.txns, m.Txn)
		}
		if m.Kind == core.MCallback && len(b.rounds) < 16 {
			b.rounds = append(b.rounds, m.Req)
		}
		tx := boundaryTxn{s, m.Txn}
		switch {
		case m.Grant == core.GrantPage:
			b.granted[boundaryLock{tx, o(m.Page, pageGrant)}] = true
		case m.Grant == core.GrantObject:
			b.granted[boundaryLock{tx, m.Obj}] = true
		case m.Kind == core.MCommitAck:
			for _, x := range b.uncovered[tx] {
				b.unlocked = append(b.unlocked, boundaryLock{tx, x})
			}
		}
	})
}

// covered reports whether one of tx's grants covers x (mu held).
func (b *boundarySessions) covered(tx boundaryTxn, x core.ObjID) bool {
	return b.granted[boundaryLock{tx, x}] || b.granted[boundaryLock{tx, o(x.Page, pageGrant)}]
}

// end forgets the grants of every transaction ended says has ended (mu
// held).
func (b *boundarySessions) end(ended func(boundaryTxn) bool) {
	for l := range b.granted {
		if ended(l.boundaryTxn) {
			delete(b.granted, l)
		}
	}
}

// close closes both sessions.
func (b *boundarySessions) close() {
	for _, c := range b.conns {
		if c != nil {
			c.Close()
		}
	}
}

// msg decodes one 8-byte record for session s:
//
//	0: bit 0 the session, bits 1–3 Busy, Purged, WantData, bits 4–5 CB
//	1: the kind, -1 to 15
//	2: the transaction: none, one of the session's own three, or one seen
//	3: the page, -9 to 9 (the layout has 8)
//	4: the slot, 0 to 5 (the layout has 4)
//	5: Req: 0 to 3, or a callback round seen
//	6: low nibble, the list that also names an object (none, Pages, Objs,
//	   DeescObjs, Updates, DroppedPages, DroppedObjs, PurgedPages,
//	   PurgedObjs, Relocs); high nibble, how many pages past the record's
//	   that object lies
//	7: the length of its update image (the slot holds 63 bytes)
func (b *boundarySessions) msg(s int, r []byte) *core.Msg {
	b.mu.Lock()
	defer b.mu.Unlock()
	obj := o(core.PageID(int8(r[3])%10), uint16(r[4]%6))
	m := &core.Msg{Kind: core.MsgKind(int(r[1])%17 - 1), Page: obj.Page, Obj: obj,
		Busy: r[0]&2 != 0, Purged: r[0]&4 != 0, WantData: r[0]&8 != 0, CB: core.CallbackKind(r[0] >> 4 & 3)}
	switch v := int(r[2] % 8); {
	case v >= 1 && v <= 3:
		m.Txn = core.TxnID(0xf000 + 0x10*s + v)
	case v >= 4 && len(b.txns) > 0:
		m.Txn = b.txns[v%len(b.txns)]
	}
	m.BusyTxn = m.Txn
	m.Req = int64(r[5] % 4)
	if r[5] >= 4 && len(b.rounds) > 0 {
		m.Req = b.rounds[int(r[5])%len(b.rounds)]
	}
	x := o(obj.Page+core.PageID(r[6]>>4), obj.Slot)
	switch r[6] & 0xf {
	case 1:
		m.Pages = []core.PageID{x.Page}
	case 2:
		m.Objs = []core.ObjID{x}
	case 3:
		m.DeescObjs = []core.ObjID{x}
	case 4:
		m.Updates = map[core.ObjID][]byte{x: bytes.Repeat([]byte{0xee}, int(r[7]))}
	case 5:
		m.DroppedPages = []core.PageID{x.Page}
	case 6:
		m.DroppedObjs = []core.ObjID{x}
	case 7:
		m.PurgedPages = []core.PageID{x.Page}
	case 8:
		m.PurgedObjs = []core.ObjID{x}
	case 9:
		m.Relocs = []core.RelocEntry{{From: obj, To: x}}
	}
	tx := boundaryTxn{s, m.Txn}
	switch m.Kind {
	case core.MCommitReq, core.MAbortReq:
		// What it writes that no grant covers, read only if a commit ack
		// follows; whatever the server makes of it, the transaction's
		// grants end here.
		var w []core.ObjID
		for _, x := range m.Objs {
			if !b.covered(tx, x) {
				w = append(w, x)
			}
		}
		for x := range m.Updates {
			if !b.covered(tx, x) {
				w = append(w, x)
			}
		}
		b.uncovered[tx] = w
		b.end(func(l boundaryTxn) bool { return l == tx })
	case core.MDeescReply:
		// The page lock, if the transaction holds it, becomes locks on the
		// objects the reply names.
		if page := (boundaryLock{tx, o(m.Page, pageGrant)}); b.granted[page] && len(m.DeescObjs) > 0 {
			delete(b.granted, page)
			for _, x := range m.DeescObjs {
				b.granted[boundaryLock{tx, x}] = true
			}
		}
	}
	return m
}
