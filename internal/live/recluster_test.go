package live

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// reclusterServer opens a server with online reclustering enabled but
// fully quiescent: the planner ticker and heat rotation are parked on
// hour-long periods, so tests drive rounds (and epochs) explicitly.
func reclusterServer(t *testing.T, dir string) *Server {
	t.Helper()
	return reclusterServerProto(t, dir, core.PSAA)
}

func reclusterServerProto(t *testing.T, dir string, proto core.Protocol) *Server {
	t.Helper()
	srv, err := openServer(dir, ServerOptions{
		Proto: proto, PageSize: 256, ObjsPerPage: 4, NumPages: 32, SyncWAL: true,
		Recluster: true, reclusterEvery: time.Hour, heatEpoch: time.Hour,
	})
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	return srv
}

// migrate runs one fabricated move group through the planner's migration
// path (system txn, relocation commit), failing the test on error.
func migrate(t *testing.T, srv *Server, g obs.MoveGroup) int {
	t.Helper()
	n, err := migrateErr(srv, g)
	if err != nil {
		t.Fatalf("migrateGroup: %v", err)
	}
	return n
}

func migrateErr(srv *Server, g obs.MoveGroup) (int, error) {
	srv.recl.mu.Lock()
	defer srv.recl.mu.Unlock()
	return srv.recl.migrateGroup(g)
}

// seedPage commits distinct values into every slot of page p and returns
// them. One user commit.
func seedPage(t *testing.T, cl *Client, p core.PageID) [][]byte {
	t.Helper()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([][]byte, 4)
	for s := 0; s < 4; s++ {
		vals[s] = []byte(fmt.Sprintf("seed-%d-%d", p, s))
		if err := tx.Write(o(p, uint16(s)), vals[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return vals
}

func readOne(t *testing.T, cl *Client, obj core.ObjID) []byte {
	t.Helper()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(obj)
	if err != nil {
		t.Fatalf("read %v: %v", obj, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return got
}

func writeOne(t *testing.T, cl *Client, obj core.ObjID, val []byte) {
	t.Helper()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(obj, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReclusterMigrateRedirectsClients is the core tentpole contract:
// after a migration, every client operation addressed at the old object
// id transparently lands on the new placement — reads return the moved
// value, writes update it — and the migration's system transactions never
// pollute the user-facing commit statistics.
func TestReclusterMigrateRedirectsClients(t *testing.T) {
	srv := reclusterServer(t, t.TempDir())
	defer srv.Close()
	c1 := attachClient(t, srv)
	defer c1.Close()

	vals := seedPage(t, c1, 3)
	userCommits := int64(1)

	moved := migrate(t, srv, obs.MoveGroup{Page: 3, Writer: 7, Slots: []uint16{0, 1}})
	if moved != 2 {
		t.Fatalf("migrated %d objects, want 2", moved)
	}
	st := srv.ReclusterStatus(true)
	if !st.Enabled || st.UserPages != 32 || st.SparePages != 4 || st.Relocated != 2 {
		t.Fatalf("unexpected recluster status %+v", st)
	}
	// The destinations must be spare pages holding the moved bytes.
	for _, e := range st.Entries {
		if int(e.To.Page) < 32 {
			t.Fatalf("relocation %v -> %v targets a user page", e.From, e.To)
		}
		got, err := srv.store.ReadObj(e.To)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, vals[e.From.Slot]) {
			t.Fatalf("spare slot %v holds %q, want %q", e.To, got[:12], vals[e.From.Slot])
		}
	}

	// A fresh client (no aliases) reads through the redirect.
	c2 := attachClient(t, srv)
	defer c2.Close()
	for s := 0; s < 4; s++ {
		got := readOne(t, c2, o(3, uint16(s)))
		if !bytes.HasPrefix(got, vals[s]) {
			t.Fatalf("slot %d reads %q after migration, want %q", s, got[:12], vals[s])
		}
	}

	// A write addressed at the old id updates the new placement, and the
	// original writer (whose cached copy the migration called back) sees it.
	writeOne(t, c2, o(3, 0), []byte("updated-3-0"))
	userCommits++
	if got := readOne(t, c1, o(3, 0)); !bytes.HasPrefix(got, []byte("updated-3-0")) {
		t.Fatalf("original client reads %q after redirected write", got[:12])
	}

	// System transactions (one per migrated group) are invisible in Stats:
	// only the user update commits count.
	if got := srv.Stats().Commits; got != userCommits {
		t.Fatalf("Stats().Commits = %d, want %d user commits (migration txns must not count)", got, userCommits)
	}
	if got := srv.metrics.reclusterMoves.Value(); got != int64(moved) {
		t.Fatalf("oodb_recluster_moves_total = %d, want %d", got, moved)
	}
}

// TestReclusterSpareSlotsNotUserAddressable: a user session may name a
// spare-region object only once the relocation table has given it out. A
// raw session writes a migrated object at its placement and commits; one
// that asks for a free slot of the same spare page, or logs one under that
// page's write lock, is closed with no reply, so no acknowledged write
// lands where a later migration would put an object.
func TestReclusterSpareSlotsNotUserAddressable(t *testing.T) {
	srv := reclusterServer(t, t.TempDir())
	defer srv.Close()
	c1 := attachClient(t, srv)
	defer c1.Close()
	seedPage(t, c1, 3)
	migrate(t, srv, obs.MoveGroup{Page: 3, Writer: 7, Slots: []uint16{0}})
	placed := srv.ReclusterStatus(true).Entries[0].To
	free := core.ObjID{Page: placed.Page, Slot: placed.Slot + 1}
	h := &sessionHarness{srv: srv}

	// writeReq opens a raw session whose transaction txn asks to write o.
	writeReq := func(txn core.TxnID, o core.ObjID) Conn {
		conn, _ := h.rawSession(t)
		if err := conn.Send(&core.Msg{Kind: core.MWriteReq, Txn: txn, Req: 1, Obj: o, Page: o.Page}); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	closed := func(conn Conn, what string) {
		t.Helper()
		if r := <-recvAsync(conn); r.err == nil {
			t.Fatalf("%s: got %v, want the session closed", what, r.m.Kind)
		}
	}
	before := srv.Stats()
	a := writeReq(0xa004, free)
	defer a.Close()
	closed(a, "a write request for a free spare slot")

	b := writeReq(0xb004, placed)
	defer b.Close()
	if g := recvWithin(t, b, 5*time.Second); g.Grant != core.GrantPage {
		t.Fatalf("write of the placement %v: %v grant %v", placed, g.Kind, g.Grant)
	}
	if err := b.Send(&core.Msg{Kind: core.MCommitReq, Txn: 0xb004, Req: 2, Pages: []core.PageID{placed.Page},
		Updates: map[core.ObjID][]byte{placed: []byte("ok"), free: []byte("forged")}}); err != nil {
		t.Fatal(err)
	}
	closed(b, "a commit logging a free spare slot")
	if after := srv.Stats(); after.WriteReqs != before.WriteReqs+1 || after.Commits != before.Commits {
		t.Fatalf("engine counted the refused messages: before %+v, after %+v", before, after)
	}

	d := writeReq(0xd004, placed)
	defer d.Close()
	if g := recvWithin(t, d, 5*time.Second); g.Grant != core.GrantPage {
		t.Fatalf("write of the placement %v after the refusals: %v grant %v", placed, g.Kind, g.Grant)
	}
	if err := d.Send(&core.Msg{Kind: core.MCommitReq, Txn: 0xd004, Req: 2, Pages: []core.PageID{placed.Page},
		Updates: map[core.ObjID][]byte{placed: []byte("placed")}}); err != nil {
		t.Fatal(err)
	}
	if ack := recvWithin(t, d, 5*time.Second); ack.Kind != core.MCommitAck {
		t.Fatalf("commit at the placement: got %v", ack.Kind)
	}
	if got := readOne(t, c1, o(3, 0)); !bytes.HasPrefix(got, []byte("placed")) {
		t.Fatalf("o(3,0) reads %q, want the write at its placement", got[:8])
	}
	if err := srv.Failed(); err != nil {
		t.Fatalf("server failed: %v", err)
	}
}

// blockedRequests counts the requests queued in the engine.
func blockedRequests(srv *Server) int {
	srv.engMu.Lock()
	defer srv.engMu.Unlock()
	return srv.eng.BlockedRequests()
}

// TestReclusterNoHiddenWait: a user transaction holds one object of a
// group while a migration moves the group, then touches a second object
// of it. The migration waits for the user in the engine, where the
// deadlock detector can see the wait, and nothing makes the user wait for
// the migration out of the detector's sight: the second access finishes,
// or is aborted, at once.
func TestReclusterNoHiddenWait(t *testing.T) {
	srv := reclusterServer(t, t.TempDir())
	defer srv.Close()
	seeder := attachClient(t, srv)
	defer seeder.Close()
	seedPage(t, seeder, 3)

	user := attachClient(t, srv)
	defer user.Close()
	tx, err := user.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(o(3, 0), []byte("user-3-0")); err != nil {
		t.Fatal(err)
	}
	moved := make(chan error, 1)
	go func() {
		_, err := migrateErr(srv, obs.MoveGroup{Page: 3, Writer: 1, Slots: []uint16{0, 1}})
		moved <- err
	}()
	waitFor(t, "the migration to queue behind the user's lock", func() bool { return blockedRequests(srv) > 0 })

	start := time.Now()
	err = tx.Write(o(3, 1), []byte("user-3-1"))
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("second access of the group took %v (err %v), want < 250ms", d, err)
	}
	committed := false
	switch {
	case err == nil:
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		committed = true
	case errors.Is(err, ErrAborted):
	default:
		t.Fatal(err)
	}
	select {
	case err := <-moved:
		if err != nil && !errors.Is(err, ErrAborted) {
			t.Fatalf("migrateGroup: %v", err)
		}
	case <-timeoutChan(t):
		t.Fatal("migration never finished")
	}
	if committed {
		fresh := attachClient(t, srv)
		defer fresh.Close()
		for s, want := range []string{"user-3-0", "user-3-1"} {
			if got := readOne(t, fresh, o(3, uint16(s))); !bytes.HasPrefix(got, []byte(want)) {
				t.Fatalf("slot %d = %q, want %q", s, got[:8], want)
			}
		}
	}
}

// TestReclusterQueuedRequestRedirected: a user request queued behind a
// migration (its callback round, answered busy by a reader, then its write
// lock) on a source object is answered with a redirect when the move
// installs — never granted at the retired address. The user reads the
// migrated value, and a write in the same transaction lands at the
// destination, as a fresh client confirms.
func TestReclusterQueuedRequestRedirected(t *testing.T) {
	for _, proto := range []core.Protocol{core.PS, core.PSAA, core.OS} {
		t.Run(proto.String(), func(t *testing.T) {
			srv := reclusterServerProto(t, t.TempDir(), proto)
			defer srv.Close()
			seeder := attachClient(t, srv)
			defer seeder.Close()
			vals := seedPage(t, seeder, 3)

			// The reader's open transaction has read the source, so it
			// answers the migration's callback busy and holds the round open.
			reader := attachClient(t, srv)
			defer reader.Close()
			rtx, err := reader.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rtx.Read(o(3, 0)); err != nil {
				t.Fatal(err)
			}
			moved := make(chan error, 1)
			go func() {
				_, err := migrateErr(srv, obs.MoveGroup{Page: 3, Writer: 1, Slots: []uint16{0}})
				moved <- err
			}()
			waitFor(t, "a busy callback reply", func() bool { return srv.Stats().BusyReplies > 0 })

			user := attachClient(t, srv)
			defer user.Close()
			utx, err := user.Begin()
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				val []byte
				err error
			}
			read := make(chan result, 1)
			go func() {
				v, err := utx.Read(o(3, 0))
				read <- result{v, err}
			}()
			waitFor(t, "the user's read to queue behind the migration", func() bool { return blockedRequests(srv) > 0 })
			redirects := srv.metrics.reclusterRedirects.Value()

			if err := rtx.Commit(); err != nil { // answers the deferred callback
				t.Fatal(err)
			}
			select {
			case err := <-moved:
				if err != nil {
					t.Fatalf("migrateGroup: %v", err)
				}
			case <-timeoutChan(t):
				t.Fatal("migration never finished")
			}
			var res result
			select {
			case res = <-read:
			case <-timeoutChan(t):
				t.Fatal("queued read never answered")
			}
			if res.err != nil {
				t.Fatalf("queued read: %v", res.err)
			}
			if !bytes.HasPrefix(res.val, vals[0]) {
				t.Fatalf("queued read = %q, want the migrated %q", res.val[:10], vals[0])
			}
			if got := srv.metrics.reclusterRedirects.Value(); got != redirects+1 {
				t.Fatalf("redirects %d -> %d, want the queued request redirected once", redirects, got)
			}

			if err := utx.Write(o(3, 0), []byte("after-move")); err != nil {
				t.Fatal(err)
			}
			if err := utx.Commit(); err != nil {
				t.Fatal(err)
			}
			st := srv.ReclusterStatus(true)
			if len(st.Entries) != 1 {
				t.Fatalf("relocation table %+v, want one entry", st.Entries)
			}
			if got, err := srv.store.ReadObj(st.Entries[0].To); err != nil || !bytes.HasPrefix(got, []byte("after-move")) {
				t.Fatalf("destination %v holds %q (%v), want the user's write", st.Entries[0].To, got, err)
			}
			fresh := attachClient(t, srv)
			defer fresh.Close()
			if got := readOne(t, fresh, o(3, 0)); !bytes.HasPrefix(got, []byte("after-move")) {
				t.Fatalf("fresh client reads %q, want the user's write", got[:10])
			}
		})
	}
}

// reclusterCopyDir clones a crashed recluster database (store, log and
// relocation side file) for independent recovery attempts.
func reclusterCopyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"data.db", "wal.log", relocFile} {
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

// TestReclusterRecoveryReplaysRelocations crashes the server after
// migrations (without a checkpoint, so relocs.db on disk is still the
// empty creation-time image — the relocation records live only in the
// WAL) and drives the double-crash matrix over that state: recovery must
// rebuild the table from the logged relocations even when recovery itself
// is crashed and restarted, at any worker count. It also pins the
// fail-stop: a WAL holding relocation records with the side file missing
// is a refused open, and the rebuilt table is saved BEFORE the log
// truncation retires the records.
func TestReclusterRecoveryReplaysRelocations(t *testing.T) {
	dir := t.TempDir()
	srv := reclusterServer(t, dir)
	c1 := attachClient(t, srv)
	vals := seedPage(t, c1, 3)
	if n := migrate(t, srv, obs.MoveGroup{Page: 3, Writer: 1, Slots: []uint16{0, 1}}); n != 2 {
		t.Fatalf("migrated %d, want 2", n)
	}
	// A post-migration user write through the redirect must also survive.
	writeOne(t, c1, o(3, 0), []byte("post-move"))
	c1.Close()
	srv.Crash()

	// Fail-stop: relocation records in the log, side file gone.
	broken := reclusterCopyDir(t, dir)
	if err := os.Remove(filepath.Join(broken, relocFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := openServer(broken, ServerOptions{Proto: core.PSAA, SyncWAL: true, Recluster: true}); err == nil {
		t.Fatal("OpenServer succeeded with relocation records but no relocs.db")
	}

	verify := func(t *testing.T, dir string) {
		srv2 := reclusterServer(t, dir)
		defer srv2.Close()
		if got := srv2.ReclusterStatus(false).Relocated; got != 2 {
			t.Fatalf("recovered relocation table has %d entries, want 2", got)
		}
		cl := attachClient(t, srv2)
		defer cl.Close()
		if got := readOne(t, cl, o(3, 0)); !bytes.HasPrefix(got, []byte("post-move")) {
			t.Fatalf("slot 0 after recovery = %q, want post-move value", got[:10])
		}
		for s := 1; s < 4; s++ {
			if got := readOne(t, cl, o(3, uint16(s))); !bytes.HasPrefix(got, vals[s]) {
				t.Fatalf("slot %d after recovery = %q, want %q", s, got[:10], vals[s])
			}
		}
	}

	// Double-crash matrix: re-crash recovery at every point that can fire
	// while relocation records are in the log, then recover for real, with
	// the recovering and the recovered server at GOMAXPROCS 1 and 4 (jobs1,
	// jobs4), so the rebuilt redirects are served under both schedulers.
	points := []struct {
		name string
		hit  int64
	}{
		{"recover.mid-replay", 1},
		{"recover.mid-replay", 2},
		{"wal.truncate.pre", 1},
	}
	defer fault.DisarmAll()
	for _, pt := range points {
		for _, jobs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/hit%d/jobs%d", pt.name, pt.hit, jobs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(jobs))
				cp := reclusterCopyDir(t, dir)
				fault.Get(pt.name).Arm(pt.hit)
				_, err := openServer(cp, ServerOptions{
					Proto: core.PSAA, SyncWAL: true, Recluster: true,
					reclusterEvery: time.Hour, heatEpoch: time.Hour,
				})
				fault.DisarmAll()
				if err == nil {
					t.Fatalf("OpenServer survived armed crash point %s", pt.name)
				}
				if !fault.IsCrash(err) {
					t.Fatalf("OpenServer failed with %v, want injected crash", err)
				}
				verify(t, cp)
			})
		}
	}

	// Real recovery on the original state: table rebuilt, redirects live.
	t.Run("clean-recovery", func(t *testing.T) { verify(t, dir) })

	// Recovery saved relocs.db before truncating the log (the records are
	// gone now), so a crash right after reopening — before any checkpoint
	// or clean shutdown could save the table — must still know the
	// redirects from the side file alone.
	srv3 := reclusterServer(t, dir)
	srv3.Crash()
	t.Run("post-truncation-crash", func(t *testing.T) { verify(t, dir) })
}

// TestReclusterMidMoveCrash arms the recluster.mid-move crash point: the
// migration's WAL record is appended but the commit dies before its
// installs, its fsync and the table publish. The unsynced record is lost
// with the crash (commits only sync after installing), so recovery must
// show the migration never happened at all — objects at their original
// homes, an empty relocation table, and the spare region fully reusable
// by a post-recovery migration. No half-moved state is acceptable.
func TestReclusterMidMoveCrash(t *testing.T) {
	dir := t.TempDir()
	srv := reclusterServer(t, dir)
	c1 := attachClient(t, srv)
	vals := seedPage(t, c1, 3)

	defer fault.DisarmAll()
	fault.Get("recluster.mid-move").Arm(1)
	if _, err := migrateErr(srv, obs.MoveGroup{Page: 3, Writer: 1, Slots: []uint16{0, 1}}); err == nil {
		t.Fatal("migration survived armed recluster.mid-move")
	}
	if srv.Failed() == nil {
		t.Fatal("server did not fail-stop on the injected crash")
	}
	c1.Close()
	srv.Crash()
	fault.DisarmAll()

	srv2 := reclusterServer(t, dir)
	defer srv2.Close()
	if got := srv2.ReclusterStatus(false).Relocated; got != 0 {
		t.Fatalf("mid-move crash leaked %d relocation entries, want 0 (atomic abort)", got)
	}
	c2 := attachClient(t, srv2)
	defer c2.Close()
	for s := 0; s < 4; s++ {
		if got := readOne(t, c2, o(3, uint16(s))); !bytes.HasPrefix(got, vals[s]) {
			t.Fatalf("slot %d = %q after mid-move crash, want %q", s, got[:10], vals[s])
		}
	}

	// The aborted move left no trace, so the same plan must now succeed.
	if n := migrate(t, srv2, obs.MoveGroup{Page: 3, Writer: 1, Slots: []uint16{0, 1}}); n != 2 {
		t.Fatalf("post-recovery migration moved %d, want 2", n)
	}
	for s := 0; s < 4; s++ {
		if got := readOne(t, c2, o(3, uint16(s))); !bytes.HasPrefix(got, vals[s]) {
			t.Fatalf("slot %d = %q after post-recovery migration, want %q", s, got[:10], vals[s])
		}
	}
}

// runReclusterWorkload executes a fixed script — user commits and aborts,
// two fabricated migrations, post-migration redirected traffic — and
// returns the resulting database bytes, relocation file bytes and stats.
func runReclusterWorkload(t *testing.T) (data, relocs []byte, st core.ServerStats) {
	t.Helper()
	dir := t.TempDir()
	srv := reclusterServer(t, dir)
	cl := attachClient(t, srv)

	for i := 0; i < 12; i++ {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
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

	if n := migrate(t, srv, obs.MoveGroup{Page: 1, Writer: 3, Slots: []uint16{0, 1}}); n != 2 {
		t.Fatalf("group 1 moved %d, want 2", n)
	}
	if n := migrate(t, srv, obs.MoveGroup{Page: 2, Writer: 5, Slots: []uint16{2, 3}}); n != 2 {
		t.Fatalf("group 2 moved %d, want 2", n)
	}
	writeOne(t, cl, o(1, 0), []byte("post-a"))
	writeOne(t, cl, o(2, 3), []byte("post-b"))
	if got := readOne(t, cl, o(1, 1)); len(got) == 0 {
		t.Fatal("empty read through redirect")
	}

	st = srv.Stats()
	cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	relocs, err = os.ReadFile(filepath.Join(dir, relocFile))
	if err != nil {
		t.Fatal(err)
	}
	return data, relocs, st
}

// TestReclusterDeterministic runs the same script (including migrations
// and redirected writes) twice: the reclustering paths must produce
// byte-identical store and relocation files and identical protocol
// statistics, so a placement is a function of the history alone.
func TestReclusterDeterministic(t *testing.T) {
	d1, r1, s1 := runReclusterWorkload(t)
	d2, r2, s2 := runReclusterWorkload(t)
	if !bytes.Equal(d1, d2) {
		t.Fatalf("data.db differs between two runs (%d vs %d bytes)", len(d1), len(d2))
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("relocs.db differs between two runs (%d vs %d bytes)", len(r1), len(r2))
	}
	if s1 != s2 {
		t.Fatalf("engine stats differ:\n run 1: %+v\n run 2: %+v", s1, s2)
	}
	if s1.Commits == 0 || s1.Aborts == 0 {
		t.Fatalf("workload exercised nothing: %+v", s1)
	}
}

// TestReclusterSpareExhaustion fills the whole spare region (4 pages x 4
// slots) and verifies the planner degrades gracefully: it moves what fits
// and a further group moves nothing, without error.
func TestReclusterSpareExhaustion(t *testing.T) {
	srv := reclusterServer(t, t.TempDir())
	defer srv.Close()
	cl := attachClient(t, srv)
	defer cl.Close()
	for p := core.PageID(1); p <= 5; p++ {
		seedPage(t, cl, p)
	}
	total := 0
	for p := core.PageID(1); p <= 4; p++ {
		total += migrate(t, srv, obs.MoveGroup{Page: int32(p), Writer: 1, Slots: []uint16{0, 1, 2, 3}})
	}
	if total != 16 {
		t.Fatalf("moved %d objects before exhaustion, want 16", total)
	}
	if n := migrate(t, srv, obs.MoveGroup{Page: 5, Writer: 1, Slots: []uint16{0, 1, 2, 3}}); n != 0 {
		t.Fatalf("exhausted spare region still moved %d objects", n)
	}
	if got := srv.ReclusterStatus(false).Relocated; got != 16 {
		t.Fatalf("relocation table has %d entries, want 16", got)
	}
	// Everything must still read correctly through the redirects.
	for p := core.PageID(1); p <= 4; p++ {
		for s := uint16(0); s < 4; s++ {
			want := fmt.Sprintf("seed-%d-%d", p, s)
			if got := readOne(t, cl, o(p, s)); !bytes.HasPrefix(got, []byte(want)) {
				t.Fatalf("object %d.%d = %q, want %q", p, s, got[:12], want)
			}
		}
	}
}

// TestReclusterEndToEndHeatPlan drives the full pipeline with nothing
// fabricated: two clients interleave writes to disjoint slot halves of
// shared pages (textbook false sharing), the heat collector scores the
// pages, one epoch rotation folds the evidence, and ReclusterNow plans
// and executes real migrations that a fresh client then reads through.
func TestReclusterEndToEndHeatPlan(t *testing.T) {
	srv := reclusterServer(t, t.TempDir())
	defer srv.Close()
	cA := attachClient(t, srv)
	defer cA.Close()
	cB := attachClient(t, srv)
	defer cB.Close()

	const sharedPages = 4
	want := make(map[core.ObjID][]byte)
	for round := 0; round < 20; round++ {
		for p := core.PageID(0); p < sharedPages; p++ {
			for _, w := range []struct {
				cl    *Client
				slots []uint16
			}{{cA, []uint16{0, 1}}, {cB, []uint16{2, 3}}} {
				tx, err := w.cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range w.slots {
					val := []byte(fmt.Sprintf("r%d-p%d-s%d", round, p, s))
					if err := tx.Write(o(p, s), val); err != nil {
						t.Fatal(err)
					}
					want[o(p, s)] = val
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Close the epoch: the fully-disjoint writer masks fold into a decayed
	// score of 0.5, exactly the suspect threshold.
	srv.heat.Rotate()
	moved, err := srv.ReclusterNow()
	if err != nil {
		t.Fatalf("ReclusterNow: %v", err)
	}
	if moved == 0 {
		sn := srv.heat.Snapshot()
		t.Fatalf("planner moved nothing; suspects=%d threshold=%.2f", len(sn.Suspects()), sn.Threshold)
	}

	// Every object — moved or not — still reads its last committed value.
	fresh := attachClient(t, srv)
	defer fresh.Close()
	for obj, val := range want {
		if got := readOne(t, fresh, obj); !bytes.HasPrefix(got, val) {
			t.Fatalf("object %v = %q after reclustering, want %q", obj, got[:12], val)
		}
	}
}

// TestReclusterRemovesFalseSharingMessages prices reclustering in the
// paper's currency, messages. Two writers alternate single-object
// read-modify-write transactions over shared pages, each on its own half
// of every page's slots: Interleaved-PRIVATE, false sharing only. One
// goroutine drives both (clients on separate machines interleave at the
// server this way), so the counts are exact. Under a page-grain protocol
// each transaction re-fetches the page the other writer's commit called
// back, and its write calls back the other's copy: one read request and
// one callback per transaction. Once a heat rotation and ReclusterNow have
// moved one writer's half of every page to spare pages, and a round of
// transactions has taught the clients their aliases, both are zero; the
// write request stays.
func TestReclusterRemovesFalseSharingMessages(t *testing.T) {
	const (
		sharedPages = 8
		objsPP      = 8
		half        = objsPP / 2
		txns        = 2000
	)
	for _, proto := range []core.Protocol{core.PS, core.PSOA, core.PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			srv, err := openServer(t.TempDir(), ServerOptions{
				// 64 pages reserve 8 spare ones (NumPages/8).
				Proto: proto, PageSize: 4096, ObjsPerPage: objsPP, NumPages: 64,
				Recluster: true, reclusterEvery: time.Hour, heatEpoch: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			writers := [2]*Client{attachClient(t, srv), attachClient(t, srv)}
			for _, cl := range writers {
				defer cl.Close()
			}

			val := make([]byte, 64)
			run := func(n int) {
				for i := 0; i < n; i++ {
					// k/sharedPages decorrelates slot from page, so each
					// writer cycles through its whole half of every page.
					w, k := i%2, i/2
					obj := o(core.PageID(k%sharedPages), uint16(w*half+(k/sharedPages)%half))
					tx, err := writers[w].Begin()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tx.Read(obj); err != nil {
						t.Fatal(err)
					}
					if err := tx.Write(obj, val); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			expect := func(when string, reads, writes, callbacks int64) {
				t.Helper()
				before := srv.Stats()
				run(txns)
				after := srv.Stats()
				got := [3]int64{after.ReadReqs - before.ReadReqs, after.WriteReqs - before.WriteReqs,
					after.Callbacks - before.Callbacks}
				if want := [3]int64{reads * txns, writes * txns, callbacks * txns}; got != want {
					t.Fatalf("%s: %d transactions made %d read requests, %d write requests, %d callbacks; want %d, %d, %d",
						when, txns, got[0], got[1], got[2], want[0], want[1], want[2])
				}
			}

			run(2 * sharedPages * half) // warm both caches
			expect("false sharing", 1, 1, 1)
			srv.heat.Rotate()
			moved, err := srv.ReclusterNow()
			if err != nil {
				t.Fatal(err)
			}
			if moved != sharedPages*half {
				t.Fatalf("ReclusterNow moved %d objects, want one writer's half of every page, %d", moved, sharedPages*half)
			}
			run(2 * sharedPages * half) // the clients learn their aliases
			expect("after reclustering", 0, 1, 0)
		})
	}
}

// TestReclusterRacesCheckpoint races migrations against checkpoints while
// two clients write disjoint slots of shared pages. A checkpoint saves
// relocs.db and truncates the log under the engine lock, the lock a
// migration's commit publishes its relocations under, so every saved
// table covers exactly the relocations whose records the truncation
// retires. After a crash, every acknowledged value reads back at its
// original address, and every acknowledged relocation is still in the
// recovered table.
func TestReclusterRacesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := reclusterServer(t, dir)
	cA := attachClient(t, srv)
	cB := attachClient(t, srv)

	const sharedPages, rounds = 4, 60
	var mu sync.Mutex
	want := make(map[core.ObjID][]byte)
	writers := []struct {
		cl    *Client
		slots []uint16
	}{{cA, []uint16{0, 1}}, {cB, []uint16{2, 3}}}
	write := func(i, round int, p core.PageID) error {
		vals := make(map[core.ObjID][]byte)
		for _, s := range writers[i].slots {
			vals[o(p, s)] = []byte(fmt.Sprintf("c%d-r%d-p%d-s%d", i, round, p, s))
		}
		if err := commitRetrying(writers[i].cl, vals); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		mu.Lock()
		maps.Copy(want, vals)
		mu.Unlock()
		return nil
	}
	// One interleaved round first, so the planner's first epoch already
	// holds false-sharing evidence on every shared page.
	for p := core.PageID(0); p < sharedPages; p++ {
		for i := range writers {
			if err := write(i, 0, p); err != nil {
				t.Fatal(err)
			}
		}
	}

	errs := make(chan error, 4) // one send at most from each writer and loop
	var writing sync.WaitGroup
	for i := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for round := 1; round < rounds; round++ {
				for p := core.PageID(0); p < sharedPages; p++ {
					if err := write(i, round, p); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}

	stop := make(chan struct{})
	var loops sync.WaitGroup
	var moved, checkpoints int
	loops.Add(2)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// An epoch long enough for both writers to leave evidence.
			time.Sleep(2 * time.Millisecond)
			srv.heat.Rotate()
			n, err := srv.ReclusterNow()
			if err != nil {
				errs <- fmt.Errorf("ReclusterNow: %w", err)
				return
			}
			moved += n
		}
	}()
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.Checkpoint(); err != nil {
				errs <- fmt.Errorf("Checkpoint: %w", err)
				return
			}
			checkpoints++
		}
	}()
	writing.Wait()
	close(stop)
	loops.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("moved %d objects over %d checkpoints", moved, checkpoints)
	if moved == 0 || checkpoints == 0 {
		t.Fatal("the race needs both migrations and checkpoints")
	}
	acked := srv.ReclusterStatus(true).Entries
	cA.Close()
	cB.Close()
	srv.Crash()

	srv2 := reclusterServer(t, dir)
	defer srv2.Close()
	table := make(map[core.ObjID]core.ObjID)
	for _, e := range srv2.ReclusterStatus(true).Entries {
		table[e.From] = e.To
	}
	for _, e := range acked {
		if to, ok := table[e.From]; !ok || to != e.To {
			t.Errorf("relocation %v -> %v lost in recovery (table has %v, %v)", e.From, e.To, to, ok)
		}
	}
	fresh := attachClient(t, srv2)
	defer fresh.Close()
	for obj, val := range want {
		if got := readOne(t, fresh, obj); !bytes.HasPrefix(got, val) {
			t.Fatalf("object %v = %q after recovery, want %q", obj, got[:len(val)], val)
		}
	}
}

// commitRetrying writes vals in one transaction, retrying the same writes
// after a deadlock abort.
func commitRetrying(cl *Client, vals map[core.ObjID][]byte) error {
	for {
		tx, err := cl.Begin()
		if err != nil {
			return err
		}
		for obj, val := range vals {
			if err = tx.Write(obj, val); err != nil {
				break
			}
		}
		if err == nil {
			err = tx.Commit()
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
	}
}
