package live

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// Checkpoint crash points. cpCheckpointMid crashes between the store
// flush and everything after it — the checkpoint's original ordering
// hazard: recovery must replay the (now redundant) log idempotently.
// The watermark pair brackets the fuzzy checkpoint's new commit point:
// pre-watermark dies with the flush done but unrecorded (recovery replays
// the whole log), post-watermark dies with the watermark durable but the
// prefix not yet truncated (recovery must skip the covered prefix and
// still come out byte-identical).
var (
	cpCheckpointMid    = fault.Register("checkpoint.mid")
	cpCheckpointPreWM  = fault.Register("checkpoint.pre-watermark")
	cpCheckpointPostWM = fault.Register("checkpoint.post-watermark")
)

// Checkpoint makes the store cover a prefix of the log, then discards
// that prefix. The crash-safety invariant is the same as the old
// stop-world version — the log may only lose a record once every install
// it covers is durably in the store — but the world barely stops:
//
//  1. Take installMu exclusively just long enough to read the log tail W
//     (no I/O under the lock). Commits hold installMu shared across their
//     append+install pair, so every record below W has fully installed:
//     its pages are dirty in memory (or already on disk).
//  2. Force the WAL durable through W (ForceTo). This is the write-ahead
//     rule: commits fsync only in WaitDurable, AFTER installing, so a
//     record below W can be installed yet not yet durable — and no page
//     image may reach the store file before the records covering it are
//     on disk, or a crash would durably keep partial effects of a
//     transaction whose record died in the log's unsynced tail.
//  3. Flush one engine shard's pages at a time (FlushOwned), each page
//     under its own latch. Commits keep flowing: an install racing the
//     flush either lands before the page's copy (flushed now) or after
//     (re-dirties the page for the next checkpoint — and its record sits
//     at or above W, surviving the truncation). Records appended after W
//     can land in copied images too, so each FlushOwned re-forces the WAL
//     through its current tail between copying its pages and writing them
//     (the force hook) — the same write-ahead rule, extended to the
//     commits that flowed during the checkpoint.
//  4. Append a watermark frame ("records ending below W are in the
//     store") and wait for its durability.
//  5. Truncate the prefix below W (TruncatePrefix; rename + dir fsync).
//
// A crash before 4 leaves the log intact (forced at least as far as any
// flushed page's records) and replay is idempotent; a crash between 4
// and 5 leaves the watermark, and recovery skips the covered prefix; a
// crash inside 5 leaves either the old or the new log file, never a torn
// one (the checkpoint.* and store.flush.* crash points exercise each
// window). The variable store keeps the stop-world flush — its installs
// relocate objects across pages, so only a flush with installs excluded
// sees a stable layout — but gains the same WAL force (to W, which with
// installs excluded covers everything installed) and watermark + prefix
// truncation.
func (s *Server) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.closed {
		failed := s.failed
		s.mu.Unlock()
		if failed != nil {
			return failed
		}
		return fmt.Errorf("live: server closed")
	}
	s.mu.Unlock()
	start := time.Now()

	var watermark int64
	var relocSnap []byte
	flushed := 0
	if st, fixed := s.store.(*Store); fixed {
		s.installMu.Lock()
		watermark = s.wal.tail()
		if s.relocs != nil {
			// Snapshot the relocation table at the watermark, under
			// installMu exclusive: migrations apply their relocations under
			// installMu shared (with their append), so this snapshot covers
			// exactly the records below W — never a relocation whose record
			// (and installs) could die unsynced with the crash.
			relocSnap = s.relocs.encode()
		}
		s.installMu.Unlock()
		if err := s.wal.ForceTo(watermark); err != nil {
			return s.failStop(err)
		}
		// Per-shard write-ahead hook: re-force through the tail read after
		// the shard's pages were copied, covering commits that installed
		// while earlier shards flushed (see FlushOwned).
		force := func() error { return s.wal.ForceTo(s.wal.tail()) }
		for i := range s.shards {
			n, err := st.FlushOwned(func(p core.PageID) bool { return s.shardIdx(p) == i }, force)
			if err != nil {
				return s.failStop(err)
			}
			flushed += n
		}
	} else {
		s.installMu.Lock()
		watermark = s.wal.tail()
		if s.relocs != nil {
			relocSnap = s.relocs.encode()
		}
		// Installs are excluded for the whole stop-world flush, so forcing
		// through W covers every record that could be in a flushed page.
		err := s.wal.ForceTo(watermark)
		if err == nil {
			flushed = s.store.DirtyPages()
			err = s.store.Flush()
		}
		s.installMu.Unlock()
		if err != nil {
			return s.failStop(err)
		}
	}
	s.metrics.flushPages.Add(int64(flushed))
	if relocSnap != nil {
		// The watermark retires the log prefix holding these relocations'
		// records; the base file must cover them first (write-ahead for
		// the side file).
		if err := writeRelocFile(s.dir, relocSnap); err != nil {
			return s.failStop(err)
		}
	}
	if err := cpCheckpointMid.Check(); err != nil {
		return s.failStop(err)
	}
	if err := cpCheckpointPreWM.Check(); err != nil {
		return s.failStop(err)
	}
	ticket, gen, err := s.wal.appendCheckpoint(watermark)
	if err != nil {
		return s.failStop(err)
	}
	if err := s.wal.WaitDurable(ticket, gen); err != nil {
		return s.failStop(err)
	}
	if err := cpCheckpointPostWM.Check(); err != nil {
		return s.failStop(err)
	}
	if err := s.wal.TruncatePrefix(watermark); err != nil {
		return s.failStop(err)
	}
	s.metrics.checkpointNs.Observe(time.Since(start).Nanoseconds())
	s.metrics.checkpoints.Inc()
	return nil
}
