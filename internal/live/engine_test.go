package live

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestApplyEnv: the environment fills unset fields only, through the test
// helper applyEnv only — defaults() (and so OpenServer) never looks at it.
func TestApplyEnv(t *testing.T) {
	t.Setenv("OODB_RECLUSTER", "1")
	t.Setenv("OODB_TRANSPORT", TransportReactor)

	lib := ServerOptions{}
	lib.defaults()
	if lib.Recluster || lib.Transport != TransportGoroutine {
		t.Errorf("defaults() read the environment: %+v", lib)
	}

	o := ServerOptions{}
	applyEnv(&o)
	if !o.Recluster || o.Transport != TransportReactor {
		t.Errorf("applyEnv on zero options gave %+v", o)
	}
	set := ServerOptions{Transport: TransportGoroutine}
	applyEnv(&set)
	if set.Transport != TransportGoroutine {
		t.Errorf("applyEnv overrode explicit fields: %+v", set)
	}
}

// TestScrapeDoesNotSerializeEngine holds the engine lock hostage (a
// stand-in for a long engine step) and proves a scrape still completes:
// metric collection, Stats and /statusz read atomics and copy-on-write
// state only, so an operator can look at a server whose engine is stuck.
func TestScrapeDoesNotSerializeEngine(t *testing.T) {
	srv, err := openServer(t.TempDir(), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := attachClient(t, srv)
	defer c.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(3, 0), []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		commits          int64
		metrics, statusz int
	}
	srv.engMu.Lock()
	done := make(chan scrape, 1)
	go func() {
		var buf bytes.Buffer
		srv.Metrics().WritePrometheus(&buf)
		rec := httptest.NewRecorder()
		AdminHandler(srv).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
		done <- scrape{srv.Stats().Commits, buf.Len(), rec.Body.Len()}
	}()
	select {
	case got := <-done:
		srv.engMu.Unlock()
		if got.commits != 1 || got.metrics == 0 || got.statusz == 0 {
			t.Fatalf("scrape under a held engine lock read %+v", got)
		}
	case <-time.After(5 * time.Second):
		srv.engMu.Unlock()
		t.Fatal("a scrape stalled behind the engine lock")
	}
}

// TestDeadlockFreeRunningWriters runs free-running Interleaved-PRIVATE
// writers (every page shared by a client pair, no object shared) until
// each has committed its transactions. The engine's synchronous detector
// must break every waits-for cycle the writers close: a victim gets
// ErrAborted and replays, nothing else fails, and no client applies a
// grant to a finished transaction (which panics in core.ClientState).
func TestDeadlockFreeRunningWriters(t *testing.T) {
	for _, nClients := range []int{2, 4} {
		t.Run(fmt.Sprintf("clients=%d", nClients), func(t *testing.T) {
			spec := workload.InterleavedPrivateSpec(0.30)
			spec.NumClients = nClients
			srv, err := openServer(t.TempDir(), ServerOptions{
				Proto: core.PSAA, PageSize: 1024, ObjsPerPage: spec.ObjsPerPage,
				NumPages: spec.DBPages, SyncWAL: false,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			txns := 3000 / nClients
			if testing.Short() {
				txns /= 4
			}
			inc := func(old []byte) []byte {
				out := append([]byte(nil), old...)
				out[0]++
				return out
			}
			var wg sync.WaitGroup
			for i := 0; i < nClients; i++ {
				cl := attachClient(t, srv)
				defer cl.Close()
				gen := workload.NewGenerator(spec, spec.Layout(), i+1, rand.New(rand.NewSource(int64(i+1))))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for n := 0; n < txns; n++ {
						refs := gen.NextTxn()
						for try := 0; ; try++ {
							err := runRefs(cl, refs, inc)
							if err == nil {
								break
							}
							if !errors.Is(err, ErrAborted) || try == 20 {
								t.Errorf("client %d txn %d: %v", i, n, err)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			t.Logf("deadlock victims: %d", srv.Stats().Deadlocks)
		})
	}
}

// runRefs runs one generated transaction; a deadlock victim gets
// ErrAborted back and replays the same references.
func runRefs(cl *Client, refs []workload.Ref, inc func([]byte) []byte) error {
	tx, err := cl.Begin()
	if err != nil {
		return err
	}
	for _, r := range refs {
		if r.Write {
			err = tx.Update(r.Obj, inc)
		} else {
			_, err = tx.Read(r.Obj)
		}
		if err != nil {
			if !errors.Is(err, ErrAborted) {
				tx.Abort()
			}
			return err
		}
	}
	return tx.Commit()
}
