package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// The live system uses a redo-only write-ahead log. The server is
// no-steal with respect to the durable store (uncommitted updates are
// installed only in memory at commit processing and flushed by
// checkpoints) and no-force (commits do not flush data pages); durability
// comes from logging every committed transaction's object afterimages
// before acknowledging the commit. Recovery replays committed records in
// log order. This matches the paper's steal/no-force WAL assumption from
// the server's perspective while keeping undo unnecessary.
//
// Commit durability is group-committed: Append (under the server lock)
// only writes the frame; WaitDurable — called WITHOUT the server lock —
// makes it durable. The first waiter becomes the sync leader and fsyncs
// once for every record written so far; commits that arrive while that
// fsync is in flight write their frames and ride the NEXT sync as a
// batch (leader/follower). Because the log is sequential and `synced` is
// a prefix offset, a durable record implies every earlier record is
// durable too — so a transaction that reads another's committed-but-not-
// yet-acked data can never become durable ahead of it.

// Crash points on the log's durability boundaries (see internal/fault).
// cpRecoverMidReplay fires inside replay itself: recovery is the one code
// path that must survive its own crash (the double-crash suites arm it
// and recover twice).
var (
	cpWALPreFrame      = fault.Register("wal.append.pre-frame")
	cpWALTornTail      = fault.Register("wal.append.torn-write")
	cpWALPreSync       = fault.Register("wal.append.pre-sync")
	cpWALTruncate      = fault.Register("wal.truncate.pre")
	cpRecoverMidReplay = fault.Register("recover.mid-replay")
)

// errWALCrashed is the sticky error waiters see after a fail-stop crash
// discarded the unsynced tail.
var errWALCrashed = errors.New("live: WAL crashed")

// adaptiveLinger is how long the sync leader waits for followers when
// group commit is starved (see shouldLinger). A few CPU-bound commit
// round-trips fit in this window, which is enough to seed a batch; from
// there batching is self-reinforcing (a bigger batch means a longer
// fsync, which collects an even bigger batch behind it).
const adaptiveLinger = 200 * time.Microsecond

// SetDemand updates the concurrency hint (see the demand field).
func (w *WAL) SetDemand(n int) { w.demand.Store(int32(n)) }

// walRecord is one logged transaction.
type walRecord struct {
	Txn    core.TxnID
	Client core.ClientID
	Objs   []core.ObjID
	Images [][]byte
	Commit bool // always true today; reserved for future undo records
	// Relocs, on a reclustering migration commit, records the old->new
	// placements this transaction installs. Recovery folds them into the
	// relocation table in log order (chain compression makes the apply
	// order significant), right after the record's images.
	Relocs []core.RelocEntry
}

// WAL is an append-only redo log with length+CRC framing and group
// commit.
type WAL struct {
	f *os.File

	// SyncOnCommit forces commits to wait for an fsync (durable but slow;
	// tests turn it off). Set before serving; not data-race guarded.
	SyncOnCommit bool
	// demand is the host's concurrency hint (the live server keeps it at
	// its session count). Group commit without a linger is bistable: a
	// solo fsync is fast, which shrinks the window in which other commits
	// can append behind it, which keeps every fsync solo — the system
	// locks into one fsync per commit even with dozens of committers.
	// Lingering only when demand > 1 breaks that feedback loop without
	// taxing single-session latency.
	demand atomic.Int32

	// mu guards the offsets and group-commit state below. WaitDurable
	// waits on cond without any server lock (that is the point of group
	// commit).
	mu   sync.Mutex
	cond *sync.Cond
	// Offsets are LOGICAL: monotonically increasing over the log's whole
	// life, never reset by a truncation. base is the logical offset of the
	// file's first byte; Truncate moves base and synced up to off instead
	// of resetting them, so every ticket issued before it reads as durable
	// (the truncation follows a store flush covering every install).
	base int64
	off  int64
	// synced is the offset known to be durable (fsynced). A simulated
	// crash discards everything past it, modeling lost page-cache writes.
	synced int64
	// syncing marks an fsync in flight (its owner is the leader).
	syncing bool
	// syncErr is sticky: once an fsync fails (or a crash is injected) no
	// later commit may be acknowledged.
	syncErr error
	// recsSinceSync counts records appended since the last sync target
	// snapshot — the next batch's size.
	recsSinceSync int
	// batchEMA is an exponential moving average of recent batch sizes in
	// 1/16ths (fixed point), used by shouldLinger to detect starvation.
	batchEMA int

	// metrics, when set, observes append/fsync latency and log growth.
	metrics *serverMetrics
}

// Len returns the bytes currently in the log file (the physical length,
// which a truncation empties even though logical offsets march on).
func (w *WAL) Len() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off - w.base
}

// tail returns the logical append offset: every record appended so far
// ends at or below it.
func (w *WAL) tail() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// OpenWAL opens (or creates) the log at path, positioned for appending
// after the last valid record. On the way it hands apply each record of
// the valid prefix, in log order, as it reads it (see scanWAL); nothing
// keeps a record after apply returns. A nil apply skips them. An error
// from apply fails the open and leaves the file as it found it.
// Otherwise any bytes past the last valid frame — a torn tail or a
// corrupt frame — are physically cut off before the first append, so
// stale garbage can never sit under (and re-corrupt) future frames.
func OpenWAL(path string, apply func(*walRecord) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f, SyncOnCommit: true}
	w.cond = sync.NewCond(&w.mu)
	end, err := scanWAL(f, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > end {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	w.off = end
	w.synced = end // on-disk bytes are durable by definition
	return w, nil
}

// encodeWALFrame encodes rec into a complete length+CRC frame. It takes
// no locks, so the server encodes commit bodies before entering its
// critical section — only the offset assignment and the frame write
// (appendFrame) remain serialized.
func encodeWALFrame(rec *walRecord) []byte {
	bp := encBufPool.Get().(*[]byte)
	body := appendWALRecord((*bp)[:0], rec)
	frame := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	copy(frame[8:], body)
	*bp = body
	encBufPool.Put(bp)
	return frame
}

// append encodes and writes one committed transaction's frame without
// syncing — the convenience path (tests, tools). The server's commit path
// calls encodeWALFrame off-lock and appendFrame under its lock.
func (w *WAL) append(rec *walRecord) (ticket int64, err error) {
	return w.appendFrame(encodeWALFrame(rec))
}

// appendFrame writes a pre-encoded frame without syncing. The returned
// ticket is the durability point to wait on. Appends serialize on w.mu;
// the log is a single sequencer.
func (w *WAL) appendFrame(frame []byte) (ticket int64, err error) {
	if err := cpWALPreFrame.Check(); err != nil {
		return 0, err
	}
	start := time.Now()

	w.mu.Lock()
	defer w.mu.Unlock()
	// A failed or torn append poisons the log. Without this, a concurrent
	// committer could append over the torn tail left by a "dead" process
	// and get its commit acknowledged, while recovery — correctly —
	// stops at the tear and never replays it.
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	if err := cpWALTornTail.Check(); err != nil {
		// Simulate a torn write: half the frame reaches the file before
		// the process dies. Recovery must stop at the previous record.
		w.f.WriteAt(frame[:len(frame)/2], w.off-w.base)
		w.syncErr = err
		w.cond.Broadcast()
		return 0, err
	}
	if _, err := w.f.WriteAt(frame, w.off-w.base); err != nil {
		w.syncErr = err
		w.cond.Broadcast()
		return 0, err
	}
	w.off += int64(len(frame))
	w.recsSinceSync++
	if w.metrics != nil {
		w.metrics.walAppendNs.Observe(time.Since(start).Nanoseconds())
		w.metrics.walBytes.Add(int64(len(frame)))
		w.metrics.walRecords.Inc()
	}
	return w.off, nil
}

// WaitDurable blocks until the record ending at ticket (from append) is
// durable: fsynced, covered by a truncation (which follows a store flush),
// or — with SyncOnCommit off — immediately. The first waiter leads the
// fsync; arrivals during an in-flight fsync ride the next one as a batch.
// Must NOT be called with the server lock held.
func (w *WAL) WaitDurable(ticket int64) error {
	// The pre-sync crash point models dying between the frame write and
	// its fsync; checked per commit (as the old inline path did), whether
	// or not this commit ends up leading the sync.
	if err := cpWALPreSync.Check(); err != nil {
		return err
	}
	if !w.SyncOnCommit {
		return nil
	}
	return w.ForceTo(ticket)
}

// shouldLinger reports whether the sync leader should wait for followers
// before fsyncing (mu held). Lingering is a trade: it grows the batch but
// stalls the disk, collapsing the append/fsync pipeline into lockstep —
// at moderate concurrency the pipeline alone batches well and the linger
// only hurts. So linger only when batching is starved relative to the
// offered concurrency: the recent average batch has captured less than a
// quarter of the sessions that could commit together. That is exactly the
// degenerate regime group commit falls into on its own (a solo fsync is
// fast, so nobody appends behind it, so the next fsync is solo too); one
// lingered sync re-seeds the batch and the check switches back off.
func (w *WAL) shouldLinger() bool {
	d := int(w.demand.Load())
	return d > 1 && w.batchEMA < d*16/4
}

// leadSync runs one group fsync as the leader. Called with w.mu held;
// releases it around the sleep/fsync and reacquires before returning.
func (w *WAL) leadSync() {
	w.syncing = true
	if w.shouldLinger() {
		// Linger so concurrent committers can append into this batch.
		w.mu.Unlock()
		time.Sleep(adaptiveLinger)
		w.mu.Lock()
	}
	target, batch := w.off, w.recsSinceSync
	w.recsSinceSync = 0
	if w.batchEMA == 0 {
		w.batchEMA = batch * 16
	} else {
		w.batchEMA += (batch*16 - w.batchEMA) / 4
	}
	w.mu.Unlock()

	start := time.Now()
	err := w.f.Sync()
	dur := time.Since(start)

	w.mu.Lock()
	w.syncing = false
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = err
		}
	} else {
		if target > w.synced {
			w.synced = target
		}
		if w.metrics != nil {
			w.metrics.walFsyncNs.Observe(dur.Nanoseconds())
			w.metrics.walSyncs.Inc()
			if batch > 0 {
				w.metrics.walGroupSize.Observe(int64(batch))
			}
		}
	}
	w.cond.Broadcast()
}

// ForceTo makes the log durable through the logical offset limit — the
// write-ahead half of the checkpoint's WAL rule: no page image may reach
// the store file before the log records covering its installs are on
// disk. Unlike WaitDurable it ignores SyncOnCommit: commit acking policy
// and the WAL rule are separate contracts, and a checkpoint that persists
// pages must persist their covering records even when commits do not wait
// for fsyncs.
func (w *WAL) ForceTo(limit int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.synced >= limit {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.leadSync()
	}
}

// Append logs one committed transaction's afterimages and (with
// SyncOnCommit) waits for durability — the non-grouped convenience used
// by tests and tools; the server's commit path calls append/WaitDurable
// separately so the fsync wait happens outside the server lock.
func (w *WAL) Append(rec *walRecord) error {
	ticket, err := w.append(rec)
	if err != nil {
		return err
	}
	return w.WaitDurable(ticket)
}

// Truncate discards the whole log (after a checkpoint, recovery or clean
// shutdown made it redundant). The file shrinks in place; base and synced
// move up to off, so logical offsets stay monotone and every ticket issued
// so far reads as durable: truncation only happens after a store flush
// that covers all installed updates.
func (w *WAL) Truncate() error {
	if err := cpWALTruncate.Check(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Shrinking the file under a leader's fsync would feed it an error
	// that poisons the log.
	for w.syncing {
		w.cond.Wait()
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.base = w.off
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.off
	w.recsSinceSync = 0
	w.cond.Broadcast()
	return nil
}

// Close fsyncs and closes the log. Without the sync, a clean shutdown
// could leave tail records only in the page cache — records a crash right
// after would silently drop, making "clean shutdown then restart" and
// "crash then recover" diverge.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil && w.syncErr == nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// crash closes the log as a dying process would: bytes written but never
// fsynced are discarded (the OS page cache died with the machine), and
// every waiting committer is released with an error so no crash-raced
// commit gets acknowledged.
func (w *WAL) crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	// A truncation whose fsync failed leaves synced below base: nothing in
	// the file is durable then.
	w.f.Truncate(max(w.synced-w.base, 0))
	w.f.Close()
	if w.syncErr == nil {
		w.syncErr = errWALCrashed
	}
	w.cond.Broadcast()
}

// scanWAL reads the log from the start, one frame at a time into one
// reused buffer, and hands each decoded record to apply (if not nil). It
// returns the append offset: the end of the last valid frame. The scan
// stops at the first torn/invalid frame (crash tail): a bad length, a
// short body, or a CRC mismatch all end it without poisoning the valid
// prefix — a flipped bit in frame k yields exactly frames 0..k-1. Record
// bodies are binary (walFormatBinary, codec.go); a body that does not
// decode ends the scan like any other invalid frame. A CRC-valid
// checkpoint watermark frame (walFormatCheckpoint), which older servers
// wrote, is skipped: replay is idempotent, so the records it covered
// replay again harmlessly, and stopping there would drop the acked
// records behind it.
func scanWAL(f *os.File, apply func(*walRecord) error) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, math.MaxInt64), 64<<10)
	var off int64
	var hdr [8]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // end of log, or a torn header
			}
			return 0, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > 1<<28 {
			return off, nil // torn or garbage tail
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn tail
			}
			return 0, err
		}
		if crc32.ChecksumIEEE(body) != want {
			return off, nil
		}
		if body[0] != walFormatCheckpoint {
			rec, err := decodeWALRecord(body)
			if err != nil {
				return off, nil
			}
			if apply != nil {
				if err := apply(rec); err != nil {
					return 0, err
				}
			}
		}
		off += int64(8 + n)
	}
}

// RecoveryStats reports what one recovery replay did.
type RecoveryStats struct {
	Records       int   // committed records replayed
	PagesReplayed int   // distinct pages that received at least one replayed image
	DurationNs    int64 // wall time applying records and flushing the store, fsync included; reading the log is not counted
}
