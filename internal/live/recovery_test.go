package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
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

// TestReplayServesLastImages: a log that rewrites the same objects many
// times replays in log order, so a recovered server serves exactly the
// last committed image of every object — any ordering mistake would
// surface as a stale afterimage.
func TestReplayServesLastImages(t *testing.T) {
	const (
		numPages = 32
		objsPP   = 4
		records  = 300
		fanout   = 4
	)
	dir := t.TempDir()
	st, err := CreateStore(filepath.Join(dir, "data.db"), 256, objsPP, numPages)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(filepath.Join(dir, "wal.log"), nil)
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

	srv, err := openServer(dir, ServerOptions{Proto: core.PSAA})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.RecoveryStats(); got.Records != records {
		t.Fatalf("server recovery stats %+v, want Records=%d", got, records)
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

// TestReplayMalformedRecordFailsOpen: a CRC-valid record whose Objs and
// Images differ in length is not a torn tail. It fails the open, and
// replay applies in the same pass it reads, so the valid record before it
// has already been applied in memory by then — the failed open must not
// flush that prefix: the store file and the log stay exactly as they were.
func TestReplayMalformedRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	dataPath, walPath := filepath.Join(dir, "data.db"), filepath.Join(dir, "wal.log")
	st, err := CreateStore(dataPath, 256, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*walRecord{
		{Txn: 1, Client: 1, Commit: true, Objs: []core.ObjID{o(2, 1)}, Images: [][]byte{[]byte("valid")}},
		{Txn: 2, Client: 1, Commit: true, Objs: []core.ObjID{o(3, 0), o(3, 1)}, Images: [][]byte{[]byte("one")}},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	logLen := w.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := openServer(dir, ServerOptions{Proto: core.PSAA})
	if err == nil {
		srv.Close()
		t.Fatal("OpenServer accepted a malformed WAL record")
	}
	if !strings.Contains(err.Error(), "malformed WAL record") {
		t.Fatalf("OpenServer failed with %v, want a malformed WAL record", err)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != logLen {
		t.Fatalf("log is %d bytes after the failed open, want %d", fi.Size(), logLen)
	}
	after, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("the failed open changed data.db")
	}
}

// replayChildEnv names the directory TestReplayMemoryBounded's child
// process reopens; it is set only in that child's environment.
const replayChildEnv = "LIVE_REPLAY_CHILD_DIR"

// TestReplayMemoryBounded: replay holds one record at a time, so reopening
// a database whose log is large peaks below the log's size. The reopen
// runs in a child process (this test binary again), whose peak resident
// set (VmHWM) counts only the reopen.
func TestReplayMemoryBounded(t *testing.T) {
	if dir := os.Getenv(replayChildEnv); dir != "" {
		srv, err := OpenServer(dir, ServerOptions{Proto: core.PSAA})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("replayed %d records, VmHWM %d\n", srv.RecoveryStats().Records, vmHWM(t))
		srv.Close()
		return
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory dwarfs the replay's")
	}
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status to read a peak resident set from")
	}

	// A crashed default-geometry database: the store is empty and the log
	// holds every commit, written the way BenchmarkRecovery writes its own.
	const (
		records = 40000
		fanout  = 8
	)
	dir := t.TempDir()
	opts := ServerOptions{Proto: core.PSAA}
	opts.defaults()
	st, err := CreateStore(filepath.Join(dir, "data.db"), opts.PageSize, opts.ObjsPerPage, opts.NumPages)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(filepath.Join(dir, "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SyncOnCommit = false
	rng := rand.New(rand.NewSource(7))
	objSize := (opts.PageSize - 4) / opts.ObjsPerPage
	img := make([]byte, objSize)
	for i := 0; i < records; i++ {
		rec := &walRecord{Txn: core.TxnID(i + 1), Client: 1, Commit: true,
			Objs: make([]core.ObjID, fanout), Images: make([][]byte, fanout)}
		for j := range rec.Objs {
			rec.Objs[j] = o(core.PageID(rng.Intn(opts.NumPages)), uint16(rng.Intn(opts.ObjsPerPage)))
			rng.Read(img)
			rec.Images[j] = img
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	logLen := w.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if logLen < 64<<20 {
		t.Fatalf("log is %d bytes, want at least 64 MiB", logLen)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestReplayMemoryBounded$", "-test.count=1")
	// The child runs the collector at its default pace, whatever this
	// process's environment says.
	cmd.Env = append(os.Environ(), replayChildEnv+"="+dir, "GOGC=100", "GOMEMLIMIT=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child reopen: %v\n%s", err, out)
	}
	var recs, peak int64
	for _, line := range strings.Split(string(out), "\n") {
		if _, err := fmt.Sscanf(line, "replayed %d records, VmHWM %d", &recs, &peak); err == nil {
			break
		}
	}
	if recs != records || peak == 0 {
		t.Fatalf("child did not report a full replay:\n%s", out)
	}
	t.Logf("reopening a %.1f MB log peaked at %.1f MB resident", float64(logLen)/1e6, float64(peak)/1e6)
	if peak > logLen {
		t.Fatalf("reopen peaked at %d bytes resident, more than the %d-byte log", peak, logLen)
	}
}

// vmHWM returns this process's peak resident set size in bytes.
func vmHWM(t *testing.T) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb int64
		if _, err := fmt.Sscanf(line, "VmHWM: %d kB", &kb); err == nil {
			return kb << 10
		}
	}
	t.Fatal("no VmHWM line in /proc/self/status")
	return 0
}

// TestCrashDuringRecovery proves recovery itself is crash-safe: a second
// crash while replaying, while flushing replayed pages, or just before
// the post-recovery log truncation must leave the log intact, and the
// next recovery must land on exactly the same store bytes as a recovery
// that never crashed. Each crash point runs with the recovering and the
// reopened server at GOMAXPROCS 1 and 4 (jobs1, jobs4): replay is one
// serial pass either way, and the recovered store must serve every acked
// write under both schedulers.
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
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(jobs))
				dir := copyDBDir(t, tpl)
				fault.Get(pt.name).Arm(pt.hit)
				_, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: true})
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
				srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA, SyncWAL: true})
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

// TestCheckpointConcurrentCommits checkpoints while committers and a
// reader are running full tilt: every request waits on the engine lock
// while a checkpoint holds it, no commit may fail or lose an acked write,
// and every read returns a value some commit had acknowledged (or the
// initial zero); once the writers drain, a final checkpoint must leave the
// log empty.
func TestCheckpointConcurrentCommits(t *testing.T) {
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
	// The reader scans the writers' objects until they drain, and keeps
	// what it read for checking against the acked values then.
	reader := attachClient(t, srv)
	type readVal struct {
		obj core.ObjID
		val []byte
	}
	var reads []readVal
	var readErr error
	readerDone := make(chan struct{})
	stopReader := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			obj := o(core.PageID(i%(nClients*pagesPerClient)), uint16(i/(nClients*pagesPerClient)%objsPP))
			tx, err := reader.Begin()
			if err == nil {
				var got []byte
				if got, err = tx.Read(obj); err == nil {
					reads = append(reads, readVal{obj, bytes.Clone(got[:4])})
					err = tx.Commit()
				}
			}
			if err != nil {
				readErr = err
				return
			}
			select {
			case <-stopReader:
				return
			default:
			}
		}
	}()

	// Checkpoint repeatedly while the committers run; it must never fail.
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
	close(stopReader)
	<-readerDone
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if readErr != nil {
		t.Fatalf("reader: %v", readErr)
	}
	ackedVals := make(map[core.ObjID][][]byte)
	for c := 0; c < nClients; c++ {
		for j := 0; j < commitsPerClnt; j++ {
			obj := o(core.PageID(c*pagesPerClient+j%pagesPerClient), uint16(j%objsPP))
			ackedVals[obj] = append(ackedVals[obj], seqVal(uint32(c*commitsPerClnt+j)))
		}
	}
	for _, r := range reads {
		ok := bytes.Equal(r.val, make([]byte, 4))
		for _, v := range ackedVals[r.obj] {
			ok = ok || bytes.Equal(r.val, v)
		}
		if !ok {
			t.Fatalf("reader saw %x at %v, which no commit acknowledged", r.val, r.obj)
		}
	}

	// Quiesced: one more checkpoint retires every record.
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := srv.wal.Len(); n != 0 {
		t.Fatalf("log holds %d bytes after a quiesced checkpoint, want 0", n)
	}

	// Crash and recover: everything acked survives.
	for _, cl := range clients {
		cl.Close()
	}
	reader.Close()
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
