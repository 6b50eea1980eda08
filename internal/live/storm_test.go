package live

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Connection storm: N thousand live sessions, most idle at any instant,
// activity skewed Zipf-style so a hot minority does the talking — the
// workload the reactor transport exists for. The per-process file
// descriptor limit (20k here, unraisable) cannot hold both ends of 10k+
// sockets comfortably alongside the store, so the benchmark runs the
// client fleet in a SECOND process: it re-execs this test binary with
// OODB_STORM_ADDR set, which wakes TestConnStormDriver below. The driver
// dials the sessions, reports READY, waits for GO, pushes the requested
// number of transactions through Zipf-chosen clients, and reports DONE.
//
// The benchmark process hosts only the server, so its goroutine count is
// a direct O(loops)-vs-O(sessions) measurement of the transport: under
// the reactor it must stay flat no matter how many sessions are parked.
//
// Transport selection is by OODB_TRANSPORT (the server option default),
// NOT by benchmark name — the name stays identical across transports so
// benchguard's -scale-base comparison lines the runs up.

const (
	stormHotPages = 64 // Zipf-read region shared by every session
	stormWorkers  = 64 // concurrently active sessions in the driver
)

func BenchmarkConnStorm(b *testing.B) {
	if runtime.GOOS != "linux" {
		b.Skip("storm benchmark sized for the linux CI container")
	}
	for _, sessions := range []int{1000, 5000, 10000} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			benchConnStorm(b, sessions)
		})
	}
}

func benchConnStorm(b *testing.B, sessions int) {
	srv, addr := startTCPServer(b, ServerOptions{
		Proto: core.PSAA, PageSize: 512, ObjsPerPage: 4,
		NumPages: stormHotPages + sessions, SyncWAL: false,
	})
	defer srv.Close()

	cmd := exec.Command(os.Args[0], "-test.run=^TestConnStormDriver$", "-test.v")
	cmd.Env = append(os.Environ(),
		"OODB_STORM_ADDR="+addr,
		"OODB_STORM_SESSIONS="+strconv.Itoa(sessions),
		"OODB_STORM_TXNS="+strconv.Itoa(b.N),
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		b.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		stdin.Close()
		cmd.Process.Kill()
		cmd.Wait()
	}()

	lines := bufio.NewScanner(stdout)
	lines.Buffer(make([]byte, 64<<10), 64<<10)
	waitFor := func(prefix string, timeout time.Duration) string {
		deadline := time.Now().Add(timeout)
		for lines.Scan() {
			line := lines.Text()
			if strings.HasPrefix(line, prefix) {
				return line
			}
			if time.Now().After(deadline) {
				break
			}
		}
		b.Fatalf("driver never printed %q (scan err: %v)", prefix, lines.Err())
		return ""
	}
	waitFor("STORM_READY", 5*time.Minute)
	if got := srv.Sessions(); got != sessions {
		b.Fatalf("sessions attached = %d, want %d", got, sessions)
	}

	// Sample the server process's goroutine count while the storm runs;
	// the max is the O(loops)-vs-O(sessions) verdict.
	var maxGoroutines atomic.Int64
	maxGoroutines.Store(int64(runtime.NumGoroutine()))
	sampleStop := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for {
			select {
			case <-sampleStop:
				return
			case <-time.After(50 * time.Millisecond):
				if g := int64(runtime.NumGoroutine()); g > maxGoroutines.Load() {
					maxGoroutines.Store(g)
				}
			}
		}
	}()

	b.ResetTimer()
	start := time.Now()
	io.WriteString(stdin, "GO\n")
	done := waitFor("STORM_DONE", 10*time.Minute)
	elapsed := time.Since(start)
	b.StopTimer()
	close(sampleStop)
	sampleWG.Wait()

	if !strings.Contains(done, "errors=0") {
		b.Fatalf("driver reported failures: %s", done)
	}
	gmax := maxGoroutines.Load()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "txn/s")
	b.ReportMetric(float64(gmax), "max-goroutines")
	if srv.Transport() == TransportReactor && sessions >= 1000 {
		// The whole point: server-side cost per parked session is zero
		// goroutines. Allow generous slack for the WAL, watchdogs,
		// accept machinery, and test plumbing — but nothing resembling
		// one-per-session.
		if limit := int64(200 + sessions/10); gmax >= limit {
			b.Fatalf("server reached %d goroutines for %d reactor sessions (limit %d); transport is O(sessions)",
				gmax, sessions, limit)
		}
	}
}

// TestConnStormDriver is the client half of BenchmarkConnStorm, woken
// only when the benchmark re-execs the test binary with OODB_STORM_ADDR
// set. It is a plain skip in a normal test run.
func TestConnStormDriver(t *testing.T) {
	addr := os.Getenv("OODB_STORM_ADDR")
	if addr == "" {
		t.Skip("driver half of BenchmarkConnStorm; spawned with OODB_STORM_ADDR set")
	}
	sessions, err := strconv.Atoi(os.Getenv("OODB_STORM_SESSIONS"))
	if err != nil || sessions <= 0 {
		t.Fatalf("bad OODB_STORM_SESSIONS: %v", err)
	}
	txns, err := strconv.Atoi(os.Getenv("OODB_STORM_TXNS"))
	if err != nil || txns <= 0 {
		t.Fatalf("bad OODB_STORM_TXNS: %v", err)
	}

	// Dial the fleet, a bounded number of handshakes in flight at once.
	clients := make([]*Client, sessions)
	var dialWG sync.WaitGroup
	dialSem := make(chan struct{}, 128)
	var dialErr atomic.Value
	for i := range clients {
		dialWG.Add(1)
		dialSem <- struct{}{}
		go func(i int) {
			defer dialWG.Done()
			defer func() { <-dialSem }()
			conn, err := DialRetry(addr, RetryPolicy{MaxAttempts: 10})
			if err != nil {
				dialErr.Store(fmt.Errorf("dial %d: %w", i, err))
				return
			}
			cl, err := Connect(conn, ClientOptions{CachePages: 32})
			if err != nil {
				dialErr.Store(fmt.Errorf("connect %d: %w", i, err))
				return
			}
			clients[i] = cl
		}(i)
	}
	dialWG.Wait()
	if err := dialErr.Load(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()

	fmt.Println("STORM_READY")
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() && in.Text() != "GO" {
	}

	// Zipf over session index: a hot few sessions carry most of the
	// traffic, the long tail sits parked — exactly the shape that makes
	// goroutine-per-connection expensive and a reactor cheap.
	var (
		next    atomic.Int64
		errs    atomic.Int64
		locks   = make([]sync.Mutex, sessions)
		workers sync.WaitGroup
	)
	val := make([]byte, 32)
	for w := 0; w < stormWorkers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rnd := rand.New(rand.NewSource(int64(w)*7919 + 1))
			zipf := rand.NewZipf(rnd, 1.2, 1, uint64(sessions-1))
			for next.Add(1) <= int64(txns) {
				idx := int(zipf.Uint64())
				if !locks[idx].TryLock() {
					idx = (idx + w) % sessions // hot collision: nudge to a neighbor
					if !locks[idx].TryLock() {
						next.Add(-1)
						continue
					}
				}
				if err := stormTxn(clients[idx], idx, rnd, val); err != nil {
					errs.Add(1)
				}
				locks[idx].Unlock()
			}
		}(w)
	}
	workers.Wait()
	fmt.Printf("STORM_DONE errors=%d\n", errs.Load())
	if n := errs.Load(); n > 0 {
		t.Fatalf("%d storm transactions failed", n)
	}
}

// stormTxn is one unit of storm work: a couple of reads from the shared
// hot region, and occasionally a write to the session's private page so
// commits carry real updates without cross-session callback storms.
func stormTxn(cl *Client, idx int, rnd *rand.Rand, val []byte) error {
	tx, err := cl.Begin()
	if err != nil {
		return err
	}
	for r := 0; r < 2; r++ {
		hot := core.PageID(rnd.Intn(stormHotPages))
		if _, err := tx.Read(o(hot, uint16(rnd.Intn(4)))); err != nil {
			tx.Abort()
			return err
		}
	}
	if rnd.Intn(8) == 0 {
		val[0] = byte(idx)
		if err := tx.Write(o(core.PageID(stormHotPages+idx), 0), val); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}
