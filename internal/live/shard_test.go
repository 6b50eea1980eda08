package live

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// twoShardPages returns two pages < numPages that hash to different
// shards on srv (the test precondition for every cross-shard scenario).
func twoShardPages(t *testing.T, srv *Server, numPages int) (core.PageID, core.PageID) {
	t.Helper()
	for a := 0; a < numPages; a++ {
		for b := a + 1; b < numPages; b++ {
			if srv.shardIdx(core.PageID(a)) != srv.shardIdx(core.PageID(b)) {
				return core.PageID(a), core.PageID(b)
			}
		}
	}
	t.Fatalf("no two pages in [0,%d) hash to different shards", numPages)
	return 0, 0
}

func TestShardDefaultsNormalization(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {5, 4}, {8, 8}, {9, 8}, {100, 64}, {-3, 1},
	}
	for _, c := range cases {
		o := ServerOptions{Shards: c.in}
		o.defaults()
		if o.Shards != c.want {
			t.Errorf("Shards %d normalized to %d, want %d", c.in, o.Shards, c.want)
		}
	}
}

// TestApplyEnv: the environment fills unset fields only, through the test
// helper applyEnv only — defaults() (and so OpenServer) never looks at it.
func TestApplyEnv(t *testing.T) {
	t.Setenv("OODB_SHARDS", "4")
	t.Setenv("OODB_HEAT", "1")
	t.Setenv("OODB_RECLUSTER", "0")
	t.Setenv("OODB_TRANSPORT", TransportReactor)

	lib := ServerOptions{}
	lib.defaults()
	if lib.Shards == 4 || lib.Heat || lib.Transport != TransportGoroutine {
		t.Errorf("defaults() read the environment: %+v", lib)
	}

	o := ServerOptions{}
	applyEnv(&o)
	if o.Shards != 4 || !o.Heat || o.Recluster || o.Transport != TransportReactor {
		t.Errorf("applyEnv on zero options gave %+v", o)
	}
	set := ServerOptions{Shards: 2, Transport: TransportGoroutine}
	applyEnv(&set)
	if set.Shards != 2 || set.Transport != TransportGoroutine {
		t.Errorf("applyEnv overrode explicit fields: %+v", set)
	}

	t.Setenv("OODB_SHARDS", "x") // unparsable: ignored
	bad := ServerOptions{}
	applyEnv(&bad)
	if bad.Shards != 0 {
		t.Errorf("applyEnv parsed OODB_SHARDS=x as %d", bad.Shards)
	}
}

// runShardWorkload runs one deterministic single-client workload against
// a fresh server with the given shard count and returns the final
// data.db bytes and the engine stats.
func runShardWorkload(t *testing.T, shards int) ([]byte, core.ServerStats) {
	t.Helper()
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.NumShards(); got != shards {
		t.Fatalf("NumShards = %d, want %d", got, shards)
	}
	c := attachClient(t, srv)

	for i := 0; i < 40; i++ {
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		// Each txn touches several pages scattered across the shard
		// space, including multi-page (multi-shard) write sets.
		for j := 0; j < 3; j++ {
			obj := o(core.PageID((i*3+j*7)%32), uint16(j%4))
			if _, err := tx.Read(obj); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(obj, []byte(fmt.Sprintf("v%d-%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 4 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Abort is fire-and-forget: the last transaction's abort is counted
	// only once the server has processed it.
	waitFor(t, "the engine to finish the last abort", func() bool { return quiesced(srv) })
	st := srv.Stats()
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	return data, st
}

// TestShardsEquivalence runs the same deterministic workload unsharded
// and with 8 shards: the resulting database bytes and protocol
// statistics must be identical. This is the shards=1 regression anchor —
// sharding must change scheduling only, never outcomes.
func TestShardsEquivalence(t *testing.T) {
	data1, st1 := runShardWorkload(t, 1)
	data8, st8 := runShardWorkload(t, 8)
	if !bytes.Equal(data1, data8) {
		t.Fatalf("data.db differs between 1 and 8 shards (%d vs %d bytes)", len(data1), len(data8))
	}
	if st1 != st8 {
		t.Fatalf("engine stats differ:\n 1 shard: %+v\n 8 shards: %+v", st1, st8)
	}
	if st1.Commits == 0 || st1.Aborts == 0 {
		t.Fatalf("workload exercised nothing: %+v", st1)
	}
}

// TestMultiShardCommit spans one write set across two shards: the commit
// must take both shard locks, install durably, leave every shard
// quiesced, and count once.
func TestMultiShardCommit(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		srv, err := openServer(dir, ServerOptions{
			Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
			SyncWAL: true, Shards: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	pa, pb := twoShardPages(t, srv, 32)
	c := attachClient(t, srv)

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(pa, 0), []byte("cross-a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(pb, 0), []byte("cross-b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().CounterValue("oodb_live_multi_shard_commits_total"); got != 1 {
		t.Fatalf("multi_shard_commits = %d, want 1", got)
	}
	for _, sh := range srv.shards {
		sh.mu.Lock()
		q := sh.eng.Quiesced()
		sh.mu.Unlock()
		if !q {
			t.Fatalf("shard %d not quiesced after multi-shard commit", sh.idx)
		}
	}
	c.Close()

	// Simulated fail-stop: the acked multi-shard commit must survive
	// recovery (acked => durable does not weaken across shards).
	srv.Crash()
	srv = open()
	defer srv.Close()
	c2 := attachClient(t, srv)
	defer c2.Close()
	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		obj core.ObjID
		val string
	}{{o(pa, 0), "cross-a"}, {o(pb, 0), "cross-b"}} {
		got, err := tx2.Read(want.obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte(want.val)) {
			t.Fatalf("after recovery %v = %q, want %q", want.obj, got[:8], want.val)
		}
	}
	tx2.Commit()
}

// TestMultiShardAbort aborts a write set spanning two shards: both
// shards must drop the transaction's state (locks released, no residue).
func TestMultiShardAbort(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pa, pb := twoShardPages(t, srv, 32)
	c := attachClient(t, srv)
	defer c.Close()

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(pa, 1), []byte("doomed-a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(pb, 1), []byte("doomed-b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for _, sh := range srv.shards {
			sh.mu.Lock()
			q := sh.eng.Quiesced()
			sh.mu.Unlock()
			if !q {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shards still hold transaction state after a multi-shard abort")
		}
		time.Sleep(time.Millisecond)
	}

	// The aborted values must not be visible.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx2.Read(o(pa, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(got, []byte("doomed-a")) {
		t.Fatal("aborted write became visible")
	}
	tx2.Commit()
}

// TestCrossShardDeadlock builds the two-transaction cycle whose edges
// live on different shards — invisible to both local detectors — and
// requires the merged waits-for pass to abort exactly one victim.
func TestCrossShardDeadlock(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PS, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pa, pb := twoShardPages(t, srv, 32)
	c1 := attachClient(t, srv)
	defer c1.Close()
	c2 := attachClient(t, srv)
	defer c2.Close()

	// Under PS (pure page locking), crossed writes on two pages block
	// each writer behind the other's cached copy: t1 waits on pb's
	// shard, t2 on pa's shard.
	tx1, _ := c1.Begin()
	tx2, _ := c2.Begin()
	if _, err := tx1.Read(o(pa, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Read(o(pb, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := tx1.Write(o(pb, 1), []byte("a")); err != nil {
			errs[0] = err
			return
		}
		errs[0] = tx1.Commit()
	}()
	go func() {
		defer wg.Done()
		if err := tx2.Write(o(pa, 1), []byte("b")); err != nil {
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
	if got := srv.Metrics().CounterValue("oodb_live_cross_shard_deadlocks_total"); got != 1 {
		t.Fatalf("cross_shard_deadlocks = %d, want 1", got)
	}
}

// TestCheckDeadlocksDeterministic drives the detector directly: with the
// cycle quiesced, CheckDeadlocks must pick the same victim the engines'
// local rule would — the highest transaction id on the cycle — and a
// second pass must find nothing.
func TestCheckDeadlocksDeterministic(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PS, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pa, pb := twoShardPages(t, srv, 32)
	c1 := attachClient(t, srv)
	defer c1.Close()
	c2 := attachClient(t, srv)
	defer c2.Close()

	tx1, _ := c1.Begin()
	tx2, _ := c2.Begin()
	id1, id2 := lastTxnID(c1), lastTxnID(c2)
	if _, err := tx1.Read(o(pa, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Read(o(pb, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var err1, err2 error
	go func() { defer wg.Done(); err1 = tx1.Write(o(pb, 1), []byte("a")) }()
	go func() { defer wg.Done(); err2 = tx2.Write(o(pa, 1), []byte("b")) }()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()

	// Drive detection passes until something dies (the background loop
	// may beat an explicit pass to the kill — either way exactly one
	// transaction aborts).
	deadline := time.Now().Add(10 * time.Second)
	n := 0
	for n == 0 && time.Now().Before(deadline) {
		select {
		case <-waitDone:
		default:
		}
		if n = srv.CheckDeadlocks(); n > 0 {
			break
		}
		select {
		case <-waitDone:
			deadline = time.Time{} // writers finished; stop probing
		case <-time.After(time.Millisecond):
		}
	}
	<-waitDone
	aborts := 0
	for _, err := range []error{err1, err2} {
		if errors.Is(err, ErrAborted) {
			aborts++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if aborts != 1 {
		t.Fatalf("aborts = %d, want exactly 1", aborts)
	}
	if n > 1 {
		t.Fatalf("CheckDeadlocks aborted %d victims for one cycle", n)
	}
	// Determinism: the victim rule kills the highest transaction id on
	// the cycle, on whichever shard it is parked.
	victimIsTx1 := errors.Is(err1, ErrAborted)
	if (id1 > id2) != victimIsTx1 {
		t.Fatalf("victim rule picked wrong: ids (%d, %d), tx1 aborted=%v", id1, id2, victimIsTx1)
	}
	if srv.CheckDeadlocks() != 0 {
		t.Fatal("second detection pass found victims in an empty graph")
	}
	if victimIsTx1 {
		tx2.Commit()
	} else {
		tx1.Commit()
	}
}

// lastTxnID reads the id Begin just assigned on c.
func lastTxnID(c *Client) core.TxnID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTxn
}

// TestScrapeDoesNotSerializeEngine holds one shard's lock (a stand-in
// for a slow scrape or a long engine step there) and proves commits on
// other shards still complete: metric collection and hot paths take
// shard locks one at a time, so nothing ever wedges the whole engine.
func TestScrapeDoesNotSerializeEngine(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 32,
		SyncWAL: false, Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pa, pb := twoShardPages(t, srv, 32)
	c := attachClient(t, srv)
	defer c.Close()

	// Hold pb's shard hostage.
	blocked := srv.shardOf(pb)
	blocked.mu.Lock()
	done := make(chan error, 1)
	go func() {
		tx, err := c.Begin()
		if err != nil {
			done <- err
			return
		}
		if err := tx.Write(o(pa, 0), []byte("free")); err != nil {
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit on free shard failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		blocked.mu.Unlock()
		t.Fatal("commit on a free shard stalled behind an unrelated shard lock")
	}
	blocked.mu.Unlock()

	// And a scrape while everything is unlocked terminates promptly.
	var buf bytes.Buffer
	srv.Metrics().WritePrometheus(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty metrics exposition")
	}
}

// TestCrossShardDeadlockFreeRunningWriters is the regression for the
// detector aborting a victim that had moved on: free-running
// Interleaved-PRIVATE writers (every page shared by a client pair, no
// object shared) on two engine shards. The detector used to confirm a
// victim by transaction id across two skewed snapshots; a transaction
// that was granted and blocked again in between got MAbortYou{Req:0}, its
// real request stayed pending, and the late grant was applied to a
// finished transaction (panic in core.(*ClientState).applyGrant).
func TestCrossShardDeadlockFreeRunningWriters(t *testing.T) {
	for _, nClients := range []int{2, 4} {
		t.Run(fmt.Sprintf("clients=%d", nClients), func(t *testing.T) {
			spec := workload.InterleavedPrivateSpec(0.30)
			spec.NumClients = nClients
			srv, err := openServer(t.TempDir(), ServerOptions{
				Proto: core.PSAA, PageSize: 1024, ObjsPerPage: spec.ObjsPerPage,
				NumPages: spec.DBPages, SyncWAL: false, Shards: 2,
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
