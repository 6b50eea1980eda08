package live

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestGroupCommitBatching drives concurrent committers through a durable
// WAL with a linger window and checks that fsyncs are actually shared:
// fewer syncs than commit records, and the group-size histogram saw
// batches. At 32 clients each fsync must carry at least 4 records (about
// 10 is usual on two Ps, 9 on one): commits falling into lockstep with the
// fsyncs, one record per sync, would read ~1.
func TestGroupCommitBatching(t *testing.T) {
	for _, tc := range []struct{ clients, perClient, minPerSync int }{
		{4, 10, 1},
		{32, 20, 4},
	} {
		t.Run(fmt.Sprintf("clients=%d", tc.clients), func(t *testing.T) {
			records, syncs := groupCommit(t, tc.clients, tc.perClient)
			if syncs >= records {
				t.Errorf("syncs=%d >= records=%d: group commit never batched", syncs, records)
			}
			if records < int64(tc.minPerSync)*syncs {
				t.Errorf("%d records in %d fsyncs (%.1f per sync), want >= %d per sync",
					records, syncs, float64(records)/float64(syncs), tc.minPerSync)
			}
		})
	}
}

// groupCommit runs perClient durable commits on each of nClients clients,
// each in a private page region so the measurement is the durability
// path, not lock contention, and returns the WAL's record and sync counts.
func groupCommit(t *testing.T, nClients, perClient int) (records, syncs int64) {
	const pagesPerClient = 4
	srv, err := openServer(t.TempDir(), ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: nClients * pagesPerClient,
		SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		cl := attachClient(t, srv)
		defer cl.Close()
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				tx, err := cl.Begin()
				if err != nil {
					t.Errorf("client %d begin: %v", i, err)
					return
				}
				if err := tx.Write(o(core.PageID(i*pagesPerClient+n%pagesPerClient), 0), []byte{byte(n)}); err != nil {
					t.Errorf("client %d write: %v", i, err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("client %d commit: %v", i, err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()

	reg := srv.Metrics()
	records = reg.CounterValue("oodb_wal_records_total")
	syncs = reg.CounterValue("oodb_wal_syncs_total")
	if records != int64(nClients*perClient) {
		t.Errorf("wal records = %d, want %d", records, nClients*perClient)
	}
	if syncs == 0 {
		t.Fatal("no WAL fsyncs despite SyncWAL")
	}
	if snap := reg.HistogramSnapshot("oodb_live_wal_group_size"); snap.Count == 0 {
		t.Error("oodb_live_wal_group_size never observed")
	}
	return records, syncs
}

// TestGroupCommitSyncDisabled pins the SyncWAL=false bypass: commits are
// acknowledged without any fsync (the test-speed configuration must not
// pay for group commit's machinery).
func TestGroupCommitSyncDisabled(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16,
		SyncWAL: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := attachClient(t, srv)
	defer cl.Close()
	for n := 0; n < 5; n++ {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(o(core.PageID(n), 0), []byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	reg := srv.Metrics()
	if got := reg.CounterValue("oodb_wal_records_total"); got != 5 {
		t.Errorf("wal records = %d, want 5", got)
	}
	if got := reg.CounterValue("oodb_wal_syncs_total"); got != 0 {
		t.Errorf("wal syncs = %d with SyncWAL=false, want 0", got)
	}
}

// TestGroupCommitAckedDurableUnderConcurrency is the batched-sync version
// of the crash audit: several clients commit concurrently (sharing
// fsyncs via the linger window) while a crash point inside the
// append/sync sequence is armed. After recovery, every acknowledged
// commit must be durable and nothing unsubmitted may appear — i.e. the
// group-commit leader must never let a follower's ack escape before the
// fsync that covers it.
func TestGroupCommitAckedDurableUnderConcurrency(t *testing.T) {
	for _, tc := range []struct {
		point string
		hit   int64
	}{
		{"wal.append.pre-sync", 3},
		{"wal.append.pre-sync", 7},
		{"wal.append.torn-write", 3},
		{"wal.append.pre-frame", 5},
	} {
		t.Run(fmt.Sprintf("%s/hit%d", tc.point, tc.hit), func(t *testing.T) {
			runConcurrentCrash(t, tc.point, tc.hit)
		})
	}
}

func runConcurrentCrash(t *testing.T, point string, hit int64) {
	const nClients, maxCommits = 3, 40
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16,
		SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fault.DisarmAll()
	fault.Get(point).Arm(hit)

	// Each client owns one object; the indices are disjoint, so plain
	// slices are race-free (joined by wg.Wait before reading).
	acked := make([]uint32, nClients)     // seq+1 of the last acknowledged commit
	submitted := make([]uint32, nClients) // seq+1 of the last submitted commit
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		cl := attachClient(t, srv)
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			for n := uint32(0); n < maxCommits; n++ {
				tx, err := cl.Begin()
				if err != nil {
					return // server crashed under us
				}
				if err := tx.Write(o(core.PageID(i), 0), seqVal(n)); err != nil {
					return
				}
				submitted[i] = n + 1
				if err := tx.Commit(); err != nil {
					return
				}
				acked[i] = n + 1
			}
		}(i, cl)
	}
	wg.Wait()
	if srv.Failed() == nil {
		t.Fatalf("crash point %s (hit %d) never fired", point, hit)
	}
	srv.Crash()
	fault.DisarmAll()

	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: true})
	if err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
	defer srv2.Close()
	auditor := attachClient(t, srv2)
	defer auditor.Close()
	tx, err := auditor.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nClients; i++ {
		got, err := tx.Read(o(core.PageID(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		v := binary.LittleEndian.Uint32(got[:4]) // seq+1; 0 = never written
		if v < acked[i] {
			t.Errorf("client %d: recovered seq %d older than acked seq %d",
				i, int64(v)-1, int64(acked[i])-1)
		}
		if v > submitted[i] {
			t.Errorf("client %d: phantom seq %d never submitted", i, v-1)
		}
	}
	tx.Commit()
}
