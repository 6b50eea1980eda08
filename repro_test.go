package repro

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func testCluster(t *testing.T, proto Protocol, clients int) *Cluster {
	t.Helper()
	c, err := NewCluster(t.TempDir(), ClusterOptions{Clients: clients, ServerOptions: ServerOptions{
		Proto: proto, NumPages: 64, ObjsPerPage: 8, PageSize: 512,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterQuickstartFlow(t *testing.T) {
	c := testCluster(t, PSAA, 2)
	tx, err := c.Client(0).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(Obj(1, 2), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := c.Client(1).Begin()
	v, err := tx2.Read(Obj(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v, []byte("payload")) {
		t.Fatalf("read %q", v)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterAttachClient(t *testing.T) {
	c := testCluster(t, PS, 1)
	extra, err := c.AttachClient()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := extra.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(Obj(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.NumClients() != 2 {
		t.Fatalf("NumClients = %d", c.NumClients())
	}
}

// deafConn is a client end that never hears the hello.
type deafConn struct{ Conn }

func (deafConn) Recv() (*core.Msg, error) { return nil, errors.New("hello lost") }

// A client that fails to connect after its session was attached must not
// leave that session (and its two goroutines) behind on the server.
func TestClusterAttachClientFailureDetachesSession(t *testing.T) {
	c := testCluster(t, PS, 1)
	cEnd, sEnd := live.Pipe()
	if _, err := c.attachOver(deafConn{cEnd}, sEnd); err == nil {
		t.Fatal("attach over a connection that loses the hello succeeded")
	}
	if c.NumClients() != 1 {
		t.Fatalf("NumClients = %d after a failed attach, want 1", c.NumClients())
	}
	for deadline := time.Now().Add(5 * time.Second); c.Server().Sessions() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions attached after a failed attach, want 1", c.Server().Sessions())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAllProtocolsThroughFacade(t *testing.T) {
	for _, proto := range []Protocol{PS, OS, PSOO, PSOA, PSAA} {
		c := testCluster(t, proto, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := c.Client(i)
				for n := 0; n < 10; {
					tx, err := cl.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					err = tx.Update(Obj(2, uint16(i)), func(old []byte) []byte {
						return []byte{old[0] + 1}
					})
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						n++
					} else if !errors.Is(err, ErrAborted) {
						t.Errorf("%v: %v", proto, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}
}

func TestSimulateFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	w := HotColdWorkload(LowLocality, 0.1)
	w.DBPages, w.HotPages, w.NumClients, w.TransPages = 250, 20, 5, 10
	cfg := DefaultSimConfig(PSAA, w)
	cfg.Warmup, cfg.Measure, cfg.Batches = 2, 8, 4
	res := Simulate(cfg)
	if res.Commits == 0 || res.Throughput <= 0 {
		t.Fatalf("simulation produced nothing: %+v", res)
	}
}
