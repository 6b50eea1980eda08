package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestRandomizedSoak hammers a live server with concurrent clients doing
// random reads and read-modify-write counters under every protocol, then
// audits the final state: each object holds exactly the number of
// increments that committed against it.
func TestRandomizedSoak(t *testing.T) {
	for _, proto := range core.AllProtocols {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			srv, _ := testServer(t, proto)
			defer srv.Close()
			// Soak with tracing and heat collection on: the ring gives a
			// protocol-level post-mortem when the audit finds a lost
			// update, and both double as race tests against real traffic.
			srv.Tracer().SetEnabled(true)
			srv.Heat().SetEnabled(true)

			const (
				clients  = 5
				txnsEach = 40
				dbPages  = 32
				objsPP   = 4
			)
			// committed[obj] counts increments from committed transactions.
			var mu sync.Mutex
			committed := make(map[core.ObjID]uint32)

			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				cl := attachClient(t, srv)
				defer cl.Close()
				wg.Add(1)
				go func(i int, cl *Client) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + i)))
					for n := 0; n < txnsEach; {
						tx, err := cl.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						var incs []core.ObjID
						err = func() error {
							for k := 0; k < 6; k++ {
								obj := o(core.PageID(rng.Intn(dbPages)), uint16(rng.Intn(objsPP)))
								if rng.Intn(3) == 0 {
									if err := tx.Update(obj, func(old []byte) []byte {
										v := binary.LittleEndian.Uint32(old[:4])
										var buf [4]byte
										binary.LittleEndian.PutUint32(buf[:], v+1)
										return buf[:]
									}); err != nil {
										return err
									}
									incs = append(incs, obj)
								} else if _, err := tx.Read(obj); err != nil {
									return err
								}
							}
							return nil
						}()
						if err == nil {
							err = tx.Commit()
						}
						switch {
						case err == nil:
							mu.Lock()
							for _, obj := range incs {
								committed[obj]++
							}
							mu.Unlock()
							n++
						case errors.Is(err, ErrAborted):
							// retry with a fresh random transaction
						default:
							t.Errorf("%v", err)
							return
						}
					}
				}(i, cl)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Audit: read every object and compare with the committed count.
			auditor := attachClient(t, srv)
			defer auditor.Close()
			tx, err := auditor.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < dbPages; p++ {
				for s := 0; s < objsPP; s++ {
					obj := o(core.PageID(p), uint16(s))
					got, err := tx.Read(obj)
					if err != nil {
						t.Fatal(err)
					}
					want := committed[obj]
					if v := binary.LittleEndian.Uint32(got[:4]); v != want {
						t.Fatalf("object %v = %d, want %d (lost/phantom updates)\nlast protocol events for page %d:\n%s",
							obj, v, want, obj.Page,
							obs.FormatEvents(srv.Tracer().ForPage(int32(obj.Page), 50)))
					}
				}
			}
			tx.Commit()
			if sn := srv.Heat().Snapshot(); sn.Reads+sn.Writes == 0 {
				t.Error("heat collector idle across the soak")
			}
		})
	}
}

// TestRecoveryUnderLoad crashes the server (no store flush) after a burst
// of committed transactions and verifies every acknowledged commit
// survives recovery.
func TestRecoveryUnderLoad(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32, SyncWAL: false})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	type write struct {
		obj core.ObjID
		val string
	}
	var mu sync.Mutex
	acked := make(map[core.ObjID]string) // last committed value per object (per-object writers disjoint)

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl := attachClient(t, srv)
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			// Each goroutine owns a disjoint slice of objects: no aborts.
			for n := 0; n < 25; n++ {
				obj := o(core.PageID(i*8+n%8), uint16(n%4))
				val := fmt.Sprintf("c%d-n%d", i, n)
				tx, err := cl.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Write(obj, []byte(val)); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[obj] = val
				mu.Unlock()
			}
		}(i, cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Crash: sync the WAL, drop everything else on the floor.
	srv.mu.Lock()
	srv.wal.f.Sync()
	srv.store.closeRaw()
	srv.wal.f.Close()
	srv.closed = true
	srv.mu.Unlock()

	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: false})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Close()
	cl := attachClient(t, srv2)
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for obj, want := range acked {
		got, err := tx.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte(want)) {
			t.Fatalf("object %v lost after crash: got %q want %q", obj, got[:12], want)
		}
	}
	tx.Commit()
}
