package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// livePoints are the crash points the commit/checkpoint script can fire;
// the fuzzer enumerates them and requires each to actually fire under the
// script. recover.mid-replay and recluster.mid-move are registered but
// absent here: they only traverse during recovery / migration commits,
// which TestCrashDuringRecovery (recovery_test.go) and
// TestReclusterMidMoveCrash (recluster_test.go) arm separately.
var livePoints = []string{
	"wal.append.pre-frame",
	"wal.append.torn-write",
	"wal.append.pre-sync",
	"wal.truncate.pre",
	"store.flush.partial",
	"store.flush.pre-sync",
	"checkpoint.mid",
}

func TestCrashPointsRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, n := range fault.Points() {
		registered[n] = true
	}
	for _, n := range append([]string{"recover.mid-replay", "recluster.mid-move"}, livePoints...) {
		if !registered[n] {
			t.Errorf("crash point %q not registered", n)
		}
	}
}

// TestCrashRecoveryFuzz enumerates every live crash point x hit count,
// runs a scripted multi-client history of commits and checkpoints until
// the armed point fires a fail-stop crash, then recovers and checks:
//
//	(a) every acknowledged commit is durable,
//	(b) nothing but submitted afterimages is visible (and nothing older
//	    than the last ack), and
//	(c) recovery is idempotent: running it twice yields identical store
//	    bytes.
func TestCrashRecoveryFuzz(t *testing.T) {
	for _, point := range livePoints {
		for hit := int64(1); hit <= 2; hit++ {
			t.Run(fmt.Sprintf("%s/hit%d", point, hit), func(t *testing.T) {
				runCrashScript(t, point, hit)
			})
		}
	}
}

// seqVal encodes a commit sequence number as an object image (stored as
// seq+1 so a never-written zero object is distinguishable).
func seqVal(seq uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], seq+1)
	return buf[:]
}

func runCrashScript(t *testing.T, point string, hit int64) {
	const (
		dbPages  = 16
		objsPP   = 4
		commits  = 24
		ckptMod  = 3 // checkpoint every 3 commits
		fanout   = 3 // objects (pages) touched per commit
		nClients = 2
	)
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: objsPP, NumPages: dbPages,
		SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = attachClient(t, srv)
	}
	defer fault.DisarmAll()

	// submitted[obj] lists the commit seqs whose commit message carried an
	// afterimage for obj; acked[obj] is the latest acknowledged seq.
	submitted := make(map[core.ObjID][]uint32)
	acked := make(map[core.ObjID]uint32) // seq+1; 0 = none acked

	fault.Get(point).Arm(hit)
	crashed := false
	for n := 0; n < commits && !crashed; n++ {
		cl := clients[n%nClients]
		seq := uint32(n)
		objs := make([]core.ObjID, 0, fanout)
		for j := 0; j < fanout; j++ {
			objs = append(objs, o(core.PageID((n+j)%dbPages), uint16(n%objsPP)))
		}
		err := func() error {
			tx, err := cl.Begin()
			if err != nil {
				return err
			}
			for _, obj := range objs {
				if err := tx.Write(obj, seqVal(seq)); err != nil {
					return err
				}
			}
			for _, obj := range objs {
				submitted[obj] = append(submitted[obj], seq)
			}
			return tx.Commit()
		}()
		switch {
		case err == nil:
			for _, obj := range objs {
				acked[obj] = seq + 1
			}
		case errors.Is(err, ErrClosed) || errors.Is(err, ErrDisconnected):
			crashed = true // server died under us
		default:
			t.Fatalf("commit %d: %v", n, err)
		}
		if !crashed && (n+1)%ckptMod == 0 {
			if err := srv.Checkpoint(); err != nil {
				if !fault.IsCrash(err) {
					t.Fatalf("checkpoint: %v", err)
				}
				crashed = true
			}
		}
		if srv.Failed() != nil {
			crashed = true
		}
	}
	if !crashed {
		t.Fatalf("crash point %s (hit %d) never fired during the script", point, hit)
	}
	if srv.Failed() == nil {
		t.Fatalf("server crashed without recording the injected fault")
	}
	for _, cl := range clients {
		cl.Close()
	}
	srv.Crash() // waits for goroutines; files already fail-stopped
	fault.DisarmAll()

	// (c) Idempotence: two recovery passes leave identical store bytes.
	first := recoverOnce(t, dir)
	second := recoverOnce(t, dir)
	if !bytes.Equal(first, second) {
		t.Fatalf("recovery is not idempotent: store bytes differ between passes")
	}

	// (a)+(b): reopen for real and audit every touched object.
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
	for obj, seqs := range submitted {
		got, err := tx.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		v := binary.LittleEndian.Uint32(got[:4]) // seq+1; 0 = never written
		if v == 0 {
			if acked[obj] != 0 {
				t.Fatalf("object %v: acked seq %d lost (object empty)", obj, acked[obj]-1)
			}
			continue
		}
		inSubmitted := false
		for _, s := range seqs {
			if s+1 == v {
				inSubmitted = true
				break
			}
		}
		if !inSubmitted {
			t.Fatalf("object %v: phantom value seq=%d never submitted", obj, v-1)
		}
		if v < acked[obj] {
			t.Fatalf("object %v: recovered seq %d older than acked seq %d", obj, v-1, acked[obj]-1)
		}
	}
	tx.Commit()
}

// recoverOnce replays the WAL against the on-disk store and returns the
// resulting store file bytes — without truncating the log, so a second
// call replays the same records again.
func recoverOnce(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := OpenStore(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatalf("recoverOnce: open store: %v", err)
	}
	wal, _, err := replay(filepath.Join(dir, "wal.log"), st, nil)
	if err != nil {
		t.Fatalf("recoverOnce: replay: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("recoverOnce: close store: %v", err)
	}
	wal.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointCrashBetweenFlushAndTruncate pins the checkpoint ordering
// hazard (satellite of ISSUE 2): a crash after the store flush but before
// the log truncation must recover to exactly the committed state, because
// replaying the redundant log is idempotent.
func TestCheckpointCrashBetweenFlushAndTruncate(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16, SyncWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := attachClient(t, srv)
	tx, _ := cl.Begin()
	if err := tx.Write(o(2, 1), []byte("pre-ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	defer fault.DisarmAll()
	fault.Get("checkpoint.mid").Arm(1)
	err = srv.Checkpoint()
	if !fault.IsCrash(err) {
		t.Fatalf("checkpoint returned %v, want injected crash", err)
	}
	cl.Close()
	srv.Crash()
	fault.DisarmAll()

	// The WAL must still hold the committed record (truncation never ran)…
	var recs []*walRecord
	w, err := OpenWAL(filepath.Join(dir, "wal.log"), collectInto(&recs))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if len(recs) != 1 {
		t.Fatalf("WAL has %d records after mid-checkpoint crash, want 1", len(recs))
	}

	// …and recovery (which replays it over the already-flushed store) must
	// land on the committed value, idempotently.
	b1, b2 := recoverOnce(t, dir), recoverOnce(t, dir)
	if !bytes.Equal(b1, b2) {
		t.Fatal("mid-checkpoint recovery not idempotent")
	}
	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2 := attachClient(t, srv2)
	defer cl2.Close()
	tx2, _ := cl2.Begin()
	got, err := tx2.Read(o(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("pre-ckpt")) {
		t.Fatalf("committed value lost across mid-checkpoint crash: %q", got[:10])
	}
	tx2.Commit()
}

// TestCheckpointForcesWALBeforeFlush pins the checkpoint's write-ahead
// rule. Commits fsync only after installing, so with SyncOnCommit off
// the log's tail is not durable when the checkpoint starts — yet the
// flush is about to make page images durable in the store. If the
// checkpoint wrote pages without first forcing the WAL, a crash would
// discard the tail's records while the store keeps their images. One row
// crashes inside the flush. The other crashes after it (checkpoint.mid),
// with an older record of page 0 already forced: recovery replays that
// record over the flushed store, and without the force nothing newer
// follows it, so page 0 rolls back while page 1 keeps its pair's value.
// The checkpoint forces the log through its tail before any page write,
// so recovery must always see every pair whole. The last row crashes the
// same window inside Close, which is a checkpoint too.
func TestCheckpointForcesWALBeforeFlush(t *testing.T) {
	for _, row := range []struct {
		point  string
		olderX bool // commit and force an older value of page 0 first
		close  bool // crash in Close rather than in Checkpoint
	}{
		{"store.flush.partial", false, false},
		{"checkpoint.mid", true, false},
		{"checkpoint.mid", true, true},
	} {
		name := row.point
		if row.close {
			name = "close-" + name
		}
		t.Run(name, func(t *testing.T) { runCheckpointForcesWAL(t, row.point, row.olderX, row.close) })
	}
}

func runCheckpointForcesWAL(t *testing.T, point string, olderX, viaClose bool) {
	const pairs = 8
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 2 * pairs,
		SyncWAL: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := attachClient(t, srv)
	if olderX {
		old, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Write(o(0, 0), seqVal(pairs)); err != nil {
			t.Fatal(err)
		}
		if err := old.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := srv.wal.ForceTo(srv.wal.tail()); err != nil {
			t.Fatal(err)
		}
	}
	// Each transaction writes the same sequence value to both pages of its
	// pair; atomicity means the two sides can never disagree.
	for k := 0; k < pairs; k++ {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []core.PageID{core.PageID(2 * k), core.PageID(2*k + 1)} {
			if err := tx.Write(o(p, 0), seqVal(uint32(k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	defer fault.DisarmAll()
	fault.Get(point).Arm(1)
	if viaClose {
		err = srv.Close()
	} else {
		err = srv.Checkpoint()
	}
	if err == nil || !fault.IsCrash(err) {
		t.Fatalf("checkpoint (close=%v) returned %v, want injected crash at %s", viaClose, err, point)
	}
	cl.Close()
	srv.Crash()
	fault.DisarmAll()

	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: false})
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
	for k := 0; k < pairs; k++ {
		a, err := tx.Read(o(core.PageID(2*k), 0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := tx.Read(o(core.PageID(2*k+1), 0))
		if err != nil {
			t.Fatal(err)
		}
		va := binary.LittleEndian.Uint32(a[:4])
		vb := binary.LittleEndian.Uint32(b[:4])
		if va != vb {
			t.Fatalf("transaction %d torn across the crash: page %d has seq %d, page %d has seq %d",
				k, 2*k, va, 2*k+1, vb)
		}
	}
	tx.Commit()
}

// TestVariableObjectsCheckpointCrash crashes a PS-AA server's checkpoint
// inside its store flush, after a history of commits whose values vary in
// length within the fixed slot, and requires the reopened server to serve
// every object's last committed value, zero-padded to the slot. A crash
// in the flush must leave the last completed one in place for replay to
// build on. (The name is kept from the variable-size store the test first
// covered.)
func TestVariableObjectsCheckpointCrash(t *testing.T) {
	type crashAt struct {
		point string
		hit   int64
	}
	var cases []crashAt
	for hit := int64(1); hit <= 12; hit++ {
		cases = append(cases, crashAt{"store.flush.partial", hit})
	}
	cases = append(cases, crashAt{"store.flush.pre-sync", 1})
	defer fault.DisarmAll()
	for seed := int64(1); seed <= 10; seed++ {
		for _, c := range cases {
			t.Run(fmt.Sprintf("seed%d/%s/hit%d", seed, c.point, c.hit), func(t *testing.T) {
				runCheckpointCrash(t, seed, c.point, c.hit)
			})
		}
	}
}

func runCheckpointCrash(t *testing.T, seed int64, point string, hit int64) {
	const (
		pages   = 16 // a flush checks store.flush.partial before each page after the first
		slots   = 8
		commits = 12 // before the completed checkpoint, and again after it
	)
	opts := ServerOptions{
		Proto: core.PSAA, PageSize: 512, ObjsPerPage: slots,
		NumPages: pages, SyncWAL: true,
	}
	size := (opts.PageSize - 4) / slots
	dir := t.TempDir()
	srv, err := openServer(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl := attachClient(t, srv)
	rng := rand.New(rand.NewSource(seed))
	last := make(map[core.ObjID][]byte)
	commit := func(n int) {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		writes := make(map[core.ObjID][]byte)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			obj := o(core.PageID(rng.Intn(pages)), uint16(rng.Intn(slots)))
			val := bytes.Repeat([]byte{byte('a' + n%26)}, 4+rng.Intn(size-3))
			binary.LittleEndian.PutUint32(val, uint32(n))
			if err := tx.Write(obj, val); err != nil {
				t.Fatal(err)
			}
			writes[obj] = val
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for obj, val := range writes {
			last[obj] = val
		}
	}
	for n := 0; n < commits; n++ {
		commit(n)
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for n := commits; n < 2*commits; n++ {
		commit(n)
	}
	fault.Get(point).Arm(hit)
	err = srv.Checkpoint()
	fault.DisarmAll()
	if err != nil && !fault.IsCrash(err) {
		t.Fatalf("checkpoint: %v", err)
	}
	cl.Close()
	srv.Crash()

	srv2, err := openServer(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	auditor := attachClient(t, srv2)
	defer auditor.Close()
	tx, err := auditor.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for obj, want := range last {
		got, err := tx.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, make([]byte, size-len(want))...)) {
			t.Fatalf("object %v reads %x, want its last committed value %x", obj, got, want)
		}
	}
	tx.Commit()
}

// TestCrashDuringCreateReopens crashes the flush that writes a brand-new
// database file. The failed OpenServer must leave nothing a second one
// cannot open.
func TestCrashDuringCreateReopens(t *testing.T) {
	for _, row := range []struct {
		name string
		opts ServerOptions
	}{
		{"fixed", ServerOptions{Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			defer fault.DisarmAll()
			fault.Get("store.flush.partial").Arm(3)
			if _, err := openServer(dir, row.opts); !fault.IsCrash(err) {
				t.Fatalf("OpenServer returned %v, want injected crash", err)
			}
			fault.DisarmAll()
			srv, err := openServer(dir, row.opts)
			if err != nil {
				t.Fatalf("reopen after a crash during creation: %v", err)
			}
			srv.Close()
		})
	}
}
