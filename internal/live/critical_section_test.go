package live

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBusyLeaseClearedOnRoundCancel pins the callback-lease lifecycle: a
// busy reply arms a deadline that is only discharged at transaction end —
// but if the callback round itself is cancelled (here: the requesting
// writer times out and disconnects), the lease must be retired with it.
// A lingering lease would depose the blameless holder at expiry.
func TestBusyLeaseClearedOnRoundCancel(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		CallbackTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	holder := attachClient(t, srv)
	defer holder.Close()
	htx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := htx.Read(o(5, 1)); err != nil {
		t.Fatal(err)
	}

	// The writer's callback reaches the holder, which answers busy
	// (active reader), arming the lease. Then the writer gives up: its
	// request deadline tears the connection down and the server drops the
	// session — and with it the open callback round.
	wConn, wsEnd := Pipe()
	if _, err := srv.Attach(wsEnd); err != nil {
		t.Fatal(err)
	}
	writer, err := Connect(wConn, ClientOptions{RequestTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	wtx, err := writer.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := wtx.Write(o(5, 1), []byte("gone")); err == nil {
		t.Fatal("writer write succeeded against a busy holder; wanted a timeout")
	}

	// Wait past the holder's lease expiry. With the round cancelled there
	// is no outstanding callback, so the watchdog must leave the holder
	// alone.
	time.Sleep(600 * time.Millisecond)
	if srv.sessionOf(holder.ID()) == nil || srv.sessionOf(writer.ID()) != nil {
		t.Fatalf("sessions = %d after lease window; holder was deposed despite the cancelled round", srv.Sessions())
	}
	if err := htx.Commit(); err != nil {
		t.Fatalf("holder commit: %v", err)
	}
}

// TestStoreLatchTornReadSoak hammers one Store with concurrent commit
// installs and off-lock payload reads. Every write is a full slot of one
// repeated byte, so any torn read — a payload observed mid-install —
// shows up as a mixed-byte object. Run under -race this also proves the
// page-latch coverage of the off-lock read path.
func TestStoreLatchTornReadSoak(t *testing.T) {
	const (
		pages   = 16
		writers = 4
		readers = 4
		iters   = 3000
	)
	s, err := CreateStore(filepath.Join(t.TempDir(), "s.db"), 256, 4, pages)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sz := s.ObjSize()

	// Seed every slot so readers never see the zero page as "torn".
	for p := 0; p < pages; p++ {
		for sl := 0; sl < 4; sl++ {
			if err := s.WriteObj(o(core.PageID(p), uint16(sl)), bytes.Repeat([]byte{1}, sz)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				oid := o(core.PageID(i%pages), uint16((w+i)%4))
				val := bytes.Repeat([]byte{byte(1 + (w*iters+i)%250)}, sz)
				if err := s.WriteObj(oid, val); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := core.PageID((r + i) % pages)
				if i%2 == 0 {
					got, err := s.ReadObj(o(p, uint16(i%4)))
					if err != nil {
						errc <- err
						return
					}
					if !uniform(got) {
						errc <- fmt.Errorf("torn object read on page %d: %v", p, got)
						return
					}
				} else {
					page, err := s.ReadPage(p)
					if err != nil {
						errc <- err
						return
					}
					for sl := 0; sl < 4; sl++ {
						if !uniform(page[sl*sz : (sl+1)*sz]) {
							errc <- fmt.Errorf("torn page read on page %d slot %d", p, sl)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// uniform reports whether every byte of b equals the first.
func uniform(b []byte) bool {
	for _, c := range b {
		if c != b[0] {
			return false
		}
	}
	return len(b) > 0
}
