package live

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// attachFaulty attaches a client to srv through a FaultConn so tests can
// inject latency, kills, and partitions on the client<->server link.
func attachFaulty(t *testing.T, srv *Server, plan fault.ConnPlan, opts ClientOptions) (*Client, *fault.FaultConn) {
	t.Helper()
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	fc := fault.WrapConn(cEnd, plan)
	cl, err := Connect(fc, opts)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return cl, fc
}

// TestRequestTimeoutSurfaced: a server that never answers must not hang a
// client with a RequestTimeout — the round trip surfaces ErrTimeout.
func TestRequestTimeoutSurfaced(t *testing.T) {
	cEnd, sEnd := Pipe()
	// Hand-rolled hello; the "server" then goes silent forever.
	if err := sEnd.Send(&core.Msg{
		Kind: core.MHello, HelloID: 1, HelloPages: 8, HelloObjsPP: 4,
		HelloObjSize: 32, HelloProto: core.PSAA,
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(cEnd, ClientOptions{RequestTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = tx.Read(o(0, 0))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Read on a silent server returned %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v, want ~60ms", d)
	}
	// The transaction is poisoned: reuse reports the terminal error.
	if err := tx.Commit(); !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrDisconnected) {
		t.Fatalf("poisoned txn Commit returned %v", err)
	}
}

// holdAckConn wraps a Conn to reproduce a narrow timeout race: the first
// commit ack is held until ackGate closes (simulating a reply sitting in
// the transport buffer past the client's request timeout), and the
// subsequent transport error is held until errGate closes (keeping the
// recv loop from reconnecting until the test has probed Begin). Recv is
// only ever called from the client's single recv loop.
type holdAckConn struct {
	Conn
	ackGate <-chan struct{}
	errGate <-chan struct{}
	held    bool
}

func (h *holdAckConn) Recv() (*core.Msg, error) {
	m, err := h.Conn.Recv()
	if err != nil {
		<-h.errGate
		return m, err
	}
	if !h.held && m.Kind == core.MCommitAck {
		h.held = true
		<-h.ackGate
	}
	return m, err
}

// TestBeginAfterCommitTimeoutRace: a commit whose ack arrives just after
// the request timeout fired (so the waiter is released with the reply,
// not a disconnect) must still leave the client reusable — the next
// Begin blocks behind the reconnect instead of failing with
// "transaction already active".
func TestBeginAfterCommitTimeoutRace(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	redial := func() (Conn, error) {
		cEnd, sEnd := Pipe()
		if _, err := srv.Attach(sEnd); err != nil {
			return nil, err
		}
		return cEnd, nil
	}
	cEnd, sEnd := Pipe()
	if _, err := srv.Attach(sEnd); err != nil {
		t.Fatal(err)
	}
	ackGate := make(chan struct{})
	errGate := make(chan struct{})
	hc := &holdAckConn{Conn: cEnd, ackGate: ackGate, errGate: errGate}
	cl, err := Connect(hc, ClientOptions{
		RequestTimeout: 100 * time.Millisecond,
		Redial:         redial,
		Retry:          RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(0, 0), []byte("racy")); err != nil {
		t.Fatal(err)
	}
	// Release the ack well after the 100ms request timeout has torn the
	// connection down; the recv loop then delivers it as a normal reply.
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(ackGate)
	}()
	if err := tx.Commit(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Commit returned %v, want ErrTimeout", err)
	}

	// The recv loop is still parked on errGate, so the reconnect has not
	// started. Begin must wait for it, not report an active transaction.
	beginErr := make(chan error, 1)
	go func() {
		tx2, err := cl.Begin()
		if err == nil {
			tx2.Abort()
		}
		beginErr <- err
	}()
	select {
	case err := <-beginErr:
		t.Fatalf("Begin returned early with %v; want it to block until the session is replaced", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(errGate) // let the recv loop observe the dead conn and redial
	select {
	case err := <-beginErr:
		if err != nil {
			t.Fatalf("Begin after commit-timeout race: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Begin still blocked after reconnect")
	}
}

// TestClientReconnectAfterKill: a killed transport aborts the in-flight
// transaction locally, then the client re-dials (fresh session, cold
// cache) and the next transaction succeeds against durable state.
func TestClientReconnectAfterKill(t *testing.T) {
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	redial := func() (Conn, error) {
		cEnd, sEnd := Pipe()
		if _, err := srv.Attach(sEnd); err != nil {
			return nil, err
		}
		return cEnd, nil
	}
	cl, fc := attachFaulty(t, srv, fault.ConnPlan{}, ClientOptions{
		RequestTimeout: time.Second,
		Redial:         redial,
		Retry:          RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	defer cl.Close()
	firstID := cl.ID()

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(3, 0), []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// In-flight transaction at kill time must fail locally, not hang.
	tx2, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(o(4, 0), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	fc.Kill()
	// The commit must round-trip (the txn has updates), so the dead
	// transport is observed and the txn fails locally instead of hanging.
	err = tx2.Commit()
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("commit across kill returned %v, want ErrDisconnected/ErrTimeout", err)
	}

	// Next Begin waits out the reconnect and runs on a fresh session.
	tx3, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin after reconnect: %v", err)
	}
	got, err := tx3.Read(o(3, 0))
	if err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
	if string(got[:7]) != "durable" {
		t.Fatalf("read %q after reconnect, want the committed value", got[:7])
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if cl.ID() == firstID {
		t.Fatal("reconnect kept the old session id; expected a fresh server-assigned id")
	}
	// The first connection was wrapped and polled; the re-dialed one is a
	// bare pipe, which delivers by call.
	if isPipe, installed := pipeReceiver(cl); !isPipe || !installed {
		t.Fatalf("re-dialed connection: pipe %v, receiver installed %v; want both", isPipe, installed)
	}
	// The dead session is eventually swept server-side.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessionOf(firstID) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds the dead session %d after reconnect", firstID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCallbackDeadlineUnsticksCluster is the acceptance scenario: a client
// holding a cached copy goes silent (partitioned), and a writer's commit
// must still make progress because the server deposes the silent client
// after CallbackTimeout.
func TestCallbackDeadlineUnsticksCluster(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		CallbackTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	holder, fcA := attachFaulty(t, srv, fault.ConnPlan{}, ClientOptions{})
	// Cache page 4 at the holder, then cut it off from the world.
	tx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(o(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fcA.Partition(true)

	writer := attachClient(t, srv)
	defer writer.Close()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		tx, err := writer.Begin()
		if err != nil {
			done <- err
			return
		}
		if err := tx.Write(o(4, 0), []byte("took over")); err != nil {
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer commit failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer stuck behind a partitioned cache holder; callback deadline did not fire")
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Logf("writer finished in %v (no callback conflict?)", d)
	}
	// The silent holder was deposed.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessionOf(holder.ID()) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("partitioned holder still attached (%d sessions)", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	holder.Close()
}

// TestCallbackBusyLeaseExpires: a client that answers "busy" proves it is
// alive and renews its lease once — but if it then stalls without ever
// finishing the transaction, the lease runs out and the writer proceeds.
func TestCallbackBusyLeaseExpires(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		CallbackTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	holder := attachClient(t, srv)
	htx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Hold the object in an ACTIVE read: the writer's callback gets an
	// automatic busy reply (deferred until commit — which never comes).
	// Note a held write lock would be a plain lock-queue wait, which the
	// callback lease deliberately does not cover.
	if _, err := htx.Read(o(5, 1)); err != nil {
		t.Fatal(err)
	}

	writer := attachClient(t, srv)
	defer writer.Close()
	done := make(chan error, 1)
	go func() {
		tx, err := writer.Begin()
		if err != nil {
			done <- err
			return
		}
		if err := tx.Write(o(5, 1), []byte("patience")); err != nil {
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer commit failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("busy-then-stalled holder blocked the writer forever")
	}
	// The stalled holder's session was torn down; its transaction is gone.
	err = htx.Commit()
	if err == nil {
		t.Fatal("stalled holder commit succeeded after being deposed")
	}
	holder.Close()
}

// TestChaosSoakLive drives concurrent clients through a fault-ridden
// transport — random latency, message kills, and rolling partitions —
// with request and callback deadlines armed, then audits coherence:
// every counter must satisfy acked <= value <= acked + unknown.
func TestChaosSoakLive(t *testing.T) {
	const (
		nClients = 4
		txnsEach = 30
		hotPages = 8
		hotSlots = 2
	)
	dir := t.TempDir()
	srv, err := openServer(filepath.Join(dir, "db"), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		CallbackTimeout: 200 * time.Millisecond,
		Heat:            true, // races heat recording against real chaos traffic
		BlackboxDir:     filepath.Join(dir, "blackbox"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Chaos runs with tracing on: a coherence failure below dumps the
	// protocol history of the implicated page.
	srv.Tracer().SetEnabled(true)

	var seedCtr atomic.Int64
	plan := func() fault.ConnPlan {
		return fault.ConnPlan{
			Seed:        1000 + seedCtr.Add(1), // vary per attempt: same-seed redials would re-kill at the same message
			SendLatency: fault.Latency{Base: 20 * time.Microsecond, Jitter: 150 * time.Microsecond},
			RecvLatency: fault.Latency{Base: 20 * time.Microsecond, Jitter: 150 * time.Microsecond},
			KillProb:    0.002,
		}
	}
	// Current faulty conn per client slot, for the partition injector.
	var fcMu sync.Mutex
	fcs := make([]*fault.FaultConn, nClients)

	mkConn := func(slot int) (Conn, error) {
		cEnd, sEnd := Pipe()
		if _, err := srv.Attach(sEnd); err != nil {
			return nil, err
		}
		fc := fault.WrapConn(cEnd, plan())
		fcMu.Lock()
		fcs[slot] = fc
		fcMu.Unlock()
		return fc, nil
	}

	clients := make([]*Client, nClients)
	for i := 0; i < nClients; i++ {
		conn, err := mkConn(i)
		if err != nil {
			t.Fatal(err)
		}
		slot := i
		clients[i], err = Connect(conn, ClientOptions{
			RequestTimeout: 250 * time.Millisecond,
			Redial:         func() (Conn, error) { return mkConn(slot) },
			Retry:          RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Rolling partitions: brief (20ms) cuts, well under CallbackTimeout,
	// so most heal before the server deposes anyone — but not all.
	partStop := make(chan struct{})
	var partWG sync.WaitGroup
	partWG.Add(1)
	go func() {
		defer partWG.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-partStop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			fcMu.Lock()
			fc := fcs[rng.Intn(nClients)]
			fcMu.Unlock()
			if fc == nil || fc.Killed() {
				continue
			}
			fc.Partition(true)
			time.Sleep(20 * time.Millisecond)
			fc.Partition(false)
		}
	}()

	type audit struct {
		acked   map[core.ObjID]uint64
		unknown map[core.ObjID]uint64
	}
	audits := make([]audit, nClients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			cl := clients[slot]
			a := audit{acked: map[core.ObjID]uint64{}, unknown: map[core.ObjID]uint64{}}
			rng := rand.New(rand.NewSource(int64(7 + slot)))
			for n := 0; n < txnsEach; n++ {
				tx, err := cl.Begin()
				if err != nil {
					t.Errorf("client %d: Begin: %v", slot, err)
					break
				}
				o1 := o(core.PageID(rng.Intn(hotPages)), uint16(rng.Intn(hotSlots)))
				o2 := o(core.PageID(rng.Intn(hotPages)), uint16(rng.Intn(hotSlots)))
				inc := func(obj core.ObjID) error {
					return tx.Update(obj, func(old []byte) []byte {
						v := binary.LittleEndian.Uint64(old[:8])
						out := make([]byte, len(old))
						copy(out, old)
						binary.LittleEndian.PutUint64(out[:8], v+1)
						return out
					})
				}
				objs := []core.ObjID{o1}
				if o2 != o1 {
					objs = append(objs, o2)
				}
				opErr := error(nil)
				for _, obj := range objs {
					if opErr = inc(obj); opErr != nil {
						break
					}
				}
				if opErr != nil {
					// The txn never reached commit: definitely not applied.
					tx.Abort()
					continue
				}
				switch err := tx.Commit(); {
				case err == nil:
					for _, obj := range objs {
						a.acked[obj]++
					}
				case errors.Is(err, ErrAborted):
					// Definitely not committed.
				case errors.Is(err, ErrTimeout), errors.Is(err, ErrDisconnected), errors.Is(err, ErrClosed):
					// Outcome unknown: the ack may have died in transit.
					for _, obj := range objs {
						a.unknown[obj]++
					}
				default:
					t.Errorf("client %d: commit: %v", slot, err)
				}
			}
			audits[slot] = a
		}(i)
	}

	soakDone := make(chan struct{})
	go func() { wg.Wait(); close(soakDone) }()
	select {
	case <-soakDone:
	case <-time.After(90 * time.Second):
		t.Fatal("chaos soak stalled: liveness violated")
	}
	close(partStop)
	partWG.Wait()
	for _, cl := range clients {
		cl.Close()
	}

	// Merge per-worker audits and verify with a clean client.
	acked := map[core.ObjID]uint64{}
	unknown := map[core.ObjID]uint64{}
	for _, a := range audits {
		for k, v := range a.acked {
			acked[k] += v
		}
		for k, v := range a.unknown {
			unknown[k] += v
		}
	}
	totalAcked := uint64(0)
	auditor := attachClient(t, srv)
	defer auditor.Close()
	tx, err := auditor.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < hotPages; p++ {
		for s := 0; s < hotSlots; s++ {
			obj := o(core.PageID(p), uint16(s))
			got, err := tx.Read(obj)
			if err != nil {
				t.Fatal(err)
			}
			v := binary.LittleEndian.Uint64(got[:8])
			lo, hi := acked[obj], acked[obj]+unknown[obj]
			if v < lo || v > hi {
				t.Errorf("object %v: counter=%d outside [acked=%d, acked+unknown=%d]\nlast protocol events for page %d:\n%s",
					obj, v, lo, hi, obj.Page,
					obs.FormatEvents(srv.Tracer().ForPage(int32(obj.Page), 50)))
			}
			totalAcked += acked[obj]
		}
	}
	tx.Commit()
	if t.Failed() {
		// Audit failure: persist the full post-mortem (trace ring, heat
		// snapshot, spans, metrics) as a blackbox for offline analysis.
		if path, err := srv.FlightDump("chaos audit failure"); err == nil && path != "" {
			t.Logf("flight recorder blackbox: %s", path)
		}
	}
	if totalAcked == 0 {
		t.Fatal("chaos soak committed nothing; faults too aggressive to be a meaningful test")
	}
	if sn := srv.Heat().Snapshot(); sn.Reads+sn.Writes == 0 {
		t.Error("heat collector idle across the whole chaos soak")
	}
	t.Logf("chaos soak: %d acked increments, %d unknown-outcome commits", totalAcked, func() (u uint64) {
		for _, v := range unknown {
			u += v
		}
		return
	}())
}
