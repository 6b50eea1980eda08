package live

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// walWithRecords writes n committed records and returns the log path plus
// the frame boundary offsets (offs[i] = file offset where record i ends).
func walWithRecords(t *testing.T, n int) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	var recs []*walRecord
	w, err := OpenWAL(path, collectInto(&recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL scanned %d records", len(recs))
	}
	offs := make([]int64, n)
	for i := 0; i < n; i++ {
		rec := &walRecord{
			Txn:    core.TxnID(100 + i),
			Client: 1,
			Objs:   []core.ObjID{o(core.PageID(i), 0)},
			Images: [][]byte{{byte(i), 1, 2, 3}},
			Commit: true,
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		offs[i] = w.off
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, offs
}

func scanFile(t *testing.T, path string) ([]*walRecord, int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []*walRecord
	off, err := scanWAL(f, collectInto(&recs))
	if err != nil {
		t.Fatalf("scanWAL returned a hard error: %v", err)
	}
	return recs, off
}

// collectInto returns an apply callback for OpenWAL and scanWAL that
// appends every record it is handed to *recs.
func collectInto(recs *[]*walRecord) func(*walRecord) error {
	return func(rec *walRecord) error {
		*recs = append(*recs, rec)
		return nil
	}
}

func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// A tail holding fewer than 8 header bytes is a torn header: the scan
// stops cleanly at the last whole record.
func TestScanWALTruncatedHeaderTail(t *testing.T) {
	path, offs := walWithRecords(t, 2)
	appendRaw(t, path, []byte{0xde, 0xad, 0xbe}) // 3 bytes: not even a header
	recs, off := scanFile(t, path)
	if len(recs) != 2 {
		t.Fatalf("scanned %d records, want 2", len(recs))
	}
	if off != offs[1] {
		t.Fatalf("resume offset %d, want %d (end of last whole record)", off, offs[1])
	}
	// Reopen-and-append recovers the torn tail: the next frame lands at
	// the clean offset and the garbage is overwritten or left past EOF.
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&walRecord{Txn: 999, Commit: true,
		Objs: []core.ObjID{o(5, 0)}, Images: [][]byte{{9}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, _ = scanFile(t, path)
	if len(recs) != 3 || recs[2].Txn != 999 {
		t.Fatalf("append after torn tail: scanned %d records", len(recs))
	}
}

// A CRC mismatch mid-file stops the scan at the corrupted record — even
// if later frames are intact, their durability ordering can no longer be
// trusted, so they are deliberately discarded.
func TestScanWALCRCMismatchMidFile(t *testing.T) {
	path, offs := walWithRecords(t, 3)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside record 1's body (first byte past its header).
	if _, err := f.WriteAt([]byte{0xff}, offs[0]+8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, off := scanFile(t, path)
	if len(recs) != 1 {
		t.Fatalf("scanned %d records past a CRC hole, want 1", len(recs))
	}
	if recs[0].Txn != 100 {
		t.Fatalf("surviving record Txn=%d, want 100", recs[0].Txn)
	}
	if off != offs[0] {
		t.Fatalf("resume offset %d, want %d", off, offs[0])
	}
}

// An absurd length field (beyond the 1<<28 sanity bound) is garbage, not
// an allocation request: the scan stops without trying to read 512MiB.
func TestScanWALOversizedLengthField(t *testing.T) {
	path, offs := walWithRecords(t, 1)
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], 1<<29)
	binary.LittleEndian.PutUint32(hdr[4:], 0xabad1dea)
	appendRaw(t, path, hdr)
	recs, off := scanFile(t, path)
	if len(recs) != 1 {
		t.Fatalf("scanned %d records, want 1", len(recs))
	}
	if off != offs[0] {
		t.Fatalf("resume offset %d, want %d", off, offs[0])
	}
}

// TestScanWALBitFlipFuzz sprays random bit flips into the middle of one
// frame and requires the scan to degrade exactly one way: yield the clean
// prefix before the damaged frame and resume there — never a hard error,
// never a phantom record, never a poisoned earlier record. The seed is
// fixed, so a surviving trial stays surviving.
func TestScanWALBitFlipFuzz(t *testing.T) {
	path, offs := walWithRecords(t, 5)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(t.TempDir(), "fuzz.log")
	frameStart, frameEnd := offs[1], offs[2] // record index 2's frame
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 256; trial++ {
		buf := append([]byte(nil), orig...)
		for k, flips := 0, 1+rng.Intn(3); k < flips; k++ {
			pos := frameStart + rng.Int63n(frameEnd-frameStart)
			buf[pos] ^= 1 << uint(rng.Intn(8))
		}
		if bytes.Equal(buf, orig) {
			continue // flips cancelled each other out
		}
		if err := os.WriteFile(target, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off := scanFile(t, target)
		if len(recs) != 2 || off != offs[1] {
			t.Fatalf("trial %d: scanned %d records to offset %d, want 2 records to %d",
				trial, len(recs), off, offs[1])
		}
		for i, rec := range recs {
			if rec.Txn != core.TxnID(100+i) {
				t.Fatalf("trial %d: surviving record %d has Txn %d", trial, i, rec.Txn)
			}
		}
	}
}

// TestScanWALSkipsLegacyWatermark: a checkpoint by an older server left a
// CRC-valid checkpoint watermark frame (walFormatCheckpoint) in its log,
// with acked records behind it. The scan must step over the frame, not
// stop there: stopping would drop those records on upgrade. Replay is
// idempotent, so replaying the records a watermark covered is harmless.
func TestScanWALSkipsLegacyWatermark(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.PSAA, PageSize: 256, ObjsPerPage: 4, NumPages: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The watermark body as older servers encoded it: the format byte,
	// then the uvarint distance from the frame back to the covered offset.
	watermark := func(delta int) []byte {
		body := binary.AppendUvarint([]byte{walFormatCheckpoint}, uint64(delta))
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
		return append(frame, body...)
	}
	record := func(i int) []byte {
		return encodeWALFrame(&walRecord{Txn: core.TxnID(100 + i), Client: 1,
			Objs: []core.ObjID{o(core.PageID(i), 0)}, Images: [][]byte{seqVal(uint32(i))}, Commit: true})
	}
	// A log that begins with a watermark (its prefix truncated), then two
	// records, a second watermark covering the first of them, two more.
	log := watermark(0)
	log = append(log, record(0)...)
	r1 := record(1)
	log = append(log, r1...)
	log = append(log, watermark(len(r1))...)
	log = append(log, record(2)...)
	log = append(log, record(3)...)
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, off := scanFile(t, path)
	if len(recs) != 4 || off != int64(len(log)) {
		t.Fatalf("scanned %d records to offset %d, want 4 records to the file size %d",
			len(recs), off, len(log))
	}
	for i, rec := range recs {
		if rec.Txn != core.TxnID(100+i) {
			t.Fatalf("record %d has Txn %d, want %d", i, rec.Txn, 100+i)
		}
	}

	srv2, err := openServer(dir, ServerOptions{Proto: core.PSAA})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.RecoveryStats(); got.Records != 4 || got.PagesReplayed != 4 {
		t.Fatalf("recovery stats %+v, want 4 records over 4 pages", got)
	}
	if v := srv2.Metrics().CounterValue("oodb_live_recovery_pages_replayed_total"); v != 4 {
		t.Fatalf("oodb_live_recovery_pages_replayed_total = %d, want 4", v)
	}
	cl := attachClient(t, srv2)
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := tx.Read(o(core.PageID(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, seqVal(uint32(i))) {
			t.Fatalf("record %d's object lost: %x", i, got[:4])
		}
	}
	tx.Commit()
}

// A zero-length frame (all-zero header, e.g. preallocated or zero-filled
// tail blocks) terminates the scan cleanly.
func TestScanWALZeroLengthFrame(t *testing.T) {
	path, offs := walWithRecords(t, 2)
	appendRaw(t, path, make([]byte, 8))
	recs, off := scanFile(t, path)
	if len(recs) != 2 {
		t.Fatalf("scanned %d records, want 2", len(recs))
	}
	if off != offs[1] {
		t.Fatalf("resume offset %d, want %d", off, offs[1])
	}
}

// ForceTo is the checkpoint's write-ahead lever: it must make the log
// durable through the requested offset even when SyncOnCommit is off
// (commit acking policy and the WAL rule are separate contracts), so a
// crash after a force loses nothing below it.
func TestForceToMakesUnsyncedTailDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SyncOnCommit = false
	for i := 0; i < 3; i++ {
		if err := w.Append(&walRecord{Txn: core.TxnID(i + 1), Commit: true,
			Objs: []core.ObjID{o(core.PageID(i), 0)}, Images: [][]byte{{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if w.synced != 0 {
		t.Fatalf("SyncOnCommit=false advanced synced to %d before any force", w.synced)
	}
	if err := w.ForceTo(w.tail()); err != nil {
		t.Fatal(err)
	}
	if got, want := w.synced, w.tail(); got < want {
		t.Fatalf("ForceTo left synced=%d, want >= %d", got, want)
	}
	w.crash() // discards the unsynced tail — which is now empty
	recs, _ := scanFile(t, path)
	if len(recs) != 3 {
		t.Fatalf("crash after ForceTo kept %d records, want 3", len(recs))
	}
}
