package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// copyDBDir clones a database directory (store + log) into a fresh temp
// dir, so one crashed state can seed many independent recovery attempts.
func copyDBDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"data.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestParallelReplayMatchesSerial is the determinism contract behind
// -recovery-jobs: partitioned replay must leave the store byte-identical
// to a serial replay, for any worker count, including non-powers of two.
// The log deliberately rewrites the same objects many times so that any
// ordering mistake between workers would surface as a stale afterimage.
func TestParallelReplayMatchesSerial(t *testing.T) {
	const (
		numPages = 32
		objsPP   = 4
		records  = 300
		fanout   = 4
	)
	tpl := t.TempDir()
	st, err := CreateStore(filepath.Join(tpl, "data.db"), 256, objsPP, numPages)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWAL(filepath.Join(tpl, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	w.SyncOnCommit = false
	rng := rand.New(rand.NewSource(11))
	want := make(map[core.ObjID][]byte) // final image per object
	for i := 0; i < records; i++ {
		objs := make([]core.ObjID, fanout)
		imgs := make([][]byte, fanout)
		for j := range objs {
			objs[j] = o(core.PageID(rng.Intn(numPages)), uint16(rng.Intn(objsPP)))
			img := make([]byte, 8)
			binary.LittleEndian.PutUint32(img[0:], uint32(i))
			binary.LittleEndian.PutUint32(img[4:], uint32(j))
			imgs[j] = img
		}
		if err := w.Append(&walRecord{Txn: core.TxnID(i + 1), Client: 1,
			Objs: objs, Images: imgs, Commit: true}); err != nil {
			t.Fatal(err)
		}
		// Later records overwrite earlier ones; within one record the last
		// image for a repeated object wins, same as the engine's install.
		for j, obj := range objs {
			want[obj] = imgs[j]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var serial []byte
	for _, jobs := range []int{1, 2, 3, 4} {
		dir := copyDBDir(t, tpl)
		st, err := OpenStore(filepath.Join(dir, "data.db"))
		if err != nil {
			t.Fatal(err)
		}
		wal, scan, err := OpenWAL(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := replayRecords(st, scan, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: replay: %v", jobs, err)
		}
		if stats.Jobs != jobs || stats.Records != records || stats.RecordsSkipped != 0 {
			t.Fatalf("jobs=%d: stats %+v", jobs, stats)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		wal.Close()
		raw, err := os.ReadFile(filepath.Join(dir, "data.db"))
		if err != nil {
			t.Fatal(err)
		}
		if jobs == 1 {
			serial = raw
		} else if !bytes.Equal(raw, serial) {
			t.Fatalf("jobs=%d: store bytes differ from serial replay", jobs)
		}
	}

	// End to end: a server opened with parallel recovery serves exactly the
	// last committed image of every object.
	dir := copyDBDir(t, tpl)
	srv, err := openServer(dir, ServerOptions{Proto: core.PSAA, RecoveryJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.RecoveryStats(); got.Jobs != 4 || got.Records != records {
		t.Fatalf("server recovery stats %+v, want Jobs=4 Records=%d", got, records)
	}
	cl := attachClient(t, srv)
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for obj, img := range want {
		got, err := tx.Read(obj)
		if err != nil {
			t.Fatalf("read %v: %v", obj, err)
		}
		if !bytes.HasPrefix(got, img) {
			t.Fatalf("object %v: got %x, want prefix %x", obj, got[:8], img)
		}
	}
	tx.Commit()
}

// TestCrashDuringRecovery proves recovery itself is crash-safe: a second
// crash while replaying, while flushing replayed pages, or just before
// the post-recovery log truncation must leave the log intact, and the
// next recovery must land on exactly the same store bytes as a recovery
// that never crashed. Each crash point runs under both serial and
// parallel replay.
func TestCrashDuringRecovery(t *testing.T) {
	const (
		numPages = 16
		objsPP   = 4
		commits  = 12
		fanout   = 3
	)
	// Build one crashed state: commits go to the durable log, then the
	// server dies without checkpointing — the store is still empty and the
	// log holds everything.
	tpl := t.TempDir()
	srv, err := openServer(tpl, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: objsPP, NumPages: numPages,
		SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := attachClient(t, srv)
	acked := make(map[core.ObjID]uint32) // seq+1 of the last acked write
	for n := 0; n < commits; n++ {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		objs := make([]core.ObjID, 0, fanout)
		for j := 0; j < fanout; j++ {
			objs = append(objs, o(core.PageID((n+j)%numPages), uint16(n%objsPP)))
		}
		for _, obj := range objs {
			if err := tx.Write(obj, seqVal(uint32(n))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, obj := range objs {
			acked[obj] = uint32(n) + 1
		}
	}
	cl.Close()
	srv.Crash()

	// Reference: what a clean, uninterrupted recovery produces.
	ref := recoverOnce(t, copyDBDir(t, tpl))

	points := []struct {
		name string
		hit  int64
	}{
		{"recover.mid-replay", 1},
		{"recover.mid-replay", 2},
		{"store.flush.partial", 1},
		{"store.flush.pre-sync", 1},
		{"wal.truncate.pre", 1}, // post-replay truncation: replay done, log not yet retired
	}
	defer fault.DisarmAll()
	for _, pt := range points {
		for _, jobs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/hit%d/jobs%d", pt.name, pt.hit, jobs), func(t *testing.T) {
				dir := copyDBDir(t, tpl)
				fault.Get(pt.name).Arm(pt.hit)
				_, err := openServer(dir, ServerOptions{
					Proto: core.PSAA, SyncWAL: true, RecoveryJobs: jobs,
				})
				fault.DisarmAll()
				if err == nil {
					t.Fatalf("OpenServer survived armed crash point %s", pt.name)
				}
				if !fault.IsCrash(err) {
					t.Fatalf("OpenServer failed with %v, want injected crash", err)
				}

				// The log must still replay to the reference bytes — twice,
				// because a recovery can itself be re-crashed.
				if got := recoverOnce(t, dir); !bytes.Equal(got, ref) {
					t.Fatal("recovery after a mid-recovery crash diverged from a clean recovery")
				}
				if got := recoverOnce(t, dir); !bytes.Equal(got, ref) {
					t.Fatal("third recovery pass diverged")
				}

				// And a real reopen must serve every acked write.
				srv2, err := openServer(dir, ServerOptions{
					Proto: core.PSAA, SyncWAL: true, RecoveryJobs: jobs,
				})
				if err != nil {
					t.Fatalf("reopen after mid-recovery crash: %v", err)
				}
				defer srv2.Close()
				auditor := attachClient(t, srv2)
				defer auditor.Close()
				tx, err := auditor.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for obj, want := range acked {
					got, err := tx.Read(obj)
					if err != nil {
						t.Fatal(err)
					}
					if v := binary.LittleEndian.Uint32(got[:4]); v != want {
						t.Fatalf("object %v: seq %d, want acked seq %d", obj, int64(v)-1, int64(want)-1)
					}
				}
				tx.Commit()
			})
		}
	}
}

// TestFuzzyCheckpointConcurrentCommits checkpoints while committers are
// running full tilt: the fuzzy checkpoint must neither block them out nor
// lose any acked write, and once the writers drain, a final checkpoint
// must shrink the log to just its watermark frame.
func TestFuzzyCheckpointConcurrentCommits(t *testing.T) {
	const (
		nClients       = 3
		commitsPerClnt = 20
		pagesPerClient = 16
		objsPP         = 4
	)
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: objsPP,
		NumPages: nClients * pagesPerClient, SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = attachClient(t, srv)
	}

	var mu sync.Mutex
	want := make(map[core.ObjID][]byte)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clients[c]
			for j := 0; j < commitsPerClnt; j++ {
				obj := o(core.PageID(c*pagesPerClient+j%pagesPerClient), uint16(j%objsPP))
				val := seqVal(uint32(c*commitsPerClnt + j))
				tx, err := cl.Begin()
				if err != nil {
					errs[c] = err
					return
				}
				if err := tx.Write(obj, val); err != nil {
					errs[c] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[c] = err
					return
				}
				mu.Lock()
				want[obj] = val // clients own disjoint pages, so last-in-goroutine wins
				mu.Unlock()
			}
		}(c)
	}
	// Checkpoint repeatedly while the committers run: with the fuzzy
	// per-shard flush this never stops the world, and must never fail.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if err := srv.Checkpoint(); err != nil {
				t.Errorf("checkpoint under load: %v", err)
				running = false
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Quiesced: one more checkpoint retires every record, leaving only the
	// watermark frame in the log.
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := srv.wal.Len(); n > 32 {
		t.Fatalf("log holds %d bytes after a quiesced checkpoint, want just the watermark frame", n)
	}

	// Crash and recover: everything acked survives, through whatever mix of
	// store flushes and log records the fuzzy checkpoints left behind.
	for _, cl := range clients {
		cl.Close()
	}
	srv.Crash()
	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	auditor := attachClient(t, srv2)
	defer auditor.Close()
	tx, err := auditor.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for obj, val := range want {
		got, err := tx.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, val) {
			t.Fatalf("object %v: got %x, want %x", obj, got[:4], val)
		}
	}
	tx.Commit()
}

// TestRecoverySkipsCheckpointCoveredPrefix pins the watermark payoff: a
// crash after the watermark is durable but before the log is truncated
// leaves a log whose prefix is already in the store. Recovery must skip
// that prefix (counted, and visible in the metrics) and replay only what
// came after.
func TestRecoverySkipsCheckpointCoveredPrefix(t *testing.T) {
	const prefixCommits = 5
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16, SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := attachClient(t, srv)
	for i := 0; i < prefixCommits; i++ {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(o(core.PageID(i), 0), seqVal(uint32(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Crash between the watermark append and the prefix truncation: the
	// store is flushed and the watermark durable, but all 5 records remain.
	defer fault.DisarmAll()
	fault.Get("checkpoint.post-watermark").Arm(1)
	if err := srv.Checkpoint(); !fault.IsCrash(err) {
		t.Fatalf("checkpoint returned %v, want injected crash", err)
	}
	cl.Close()
	srv.Crash()
	fault.DisarmAll()

	// More commits arrive after the (crashed) checkpoint — simulated by
	// appending straight to the surviving log, past the watermark.
	w, scan, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.recs) != prefixCommits || scan.covered == 0 {
		t.Fatalf("surviving log: %d records, covered=%d; want %d records under a watermark",
			len(scan.recs), scan.covered, prefixCommits)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(&walRecord{Txn: core.TxnID(1000 + i), Client: 1,
			Objs:   []core.ObjID{o(core.PageID(8+i), 0)},
			Images: [][]byte{seqVal(uint32(100 + i))}, Commit: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	stats := srv2.RecoveryStats()
	if stats.RecordsSkipped != prefixCommits || stats.Records != 2 {
		t.Fatalf("recovery stats %+v, want %d skipped / 2 replayed", stats, prefixCommits)
	}
	if stats.PagesSkipped != prefixCommits || stats.PagesReplayed != 2 {
		t.Fatalf("recovery stats %+v, want %d pages skipped / 2 replayed", stats, prefixCommits)
	}
	if v := srv2.Metrics().CounterValue("oodb_live_recovery_pages_replayed_total"); v != 2 {
		t.Fatalf("oodb_live_recovery_pages_replayed_total = %d, want 2", v)
	}
	if v := srv2.Metrics().CounterValue("oodb_live_recovery_pages_skipped_total"); v != prefixCommits {
		t.Fatalf("oodb_live_recovery_pages_skipped_total = %d, want %d", v, prefixCommits)
	}

	// Both the skipped prefix and the replayed tail must be readable.
	auditor := attachClient(t, srv2)
	defer auditor.Close()
	tx, err := auditor.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefixCommits; i++ {
		got, err := tx.Read(o(core.PageID(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, seqVal(uint32(i))) {
			t.Fatalf("checkpointed object on page %d lost", i)
		}
	}
	for i := 0; i < 2; i++ {
		got, err := tx.Read(o(core.PageID(8+i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, seqVal(uint32(100+i))) {
			t.Fatalf("post-watermark object on page %d lost", 8+i)
		}
	}
	tx.Commit()
}
