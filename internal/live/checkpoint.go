package live

import (
	"fmt"

	"repro/internal/fault"
)

// cpCheckpointMid crashes between the store flush (and relocs.db) and the
// log truncation: recovery must replay the now redundant log
// idempotently.
var cpCheckpointMid = fault.Register("checkpoint.mid")

// Checkpoint makes the store cover the whole log, then empties the log.
// It holds the engine lock throughout, so no commit appends or installs
// while it runs, and every request waits until it returns. In order:
//
//  1. Force the WAL durable through its tail (ForceTo). This is the
//     write-ahead rule: commits fsync only in WaitDurable, AFTER
//     installing, so an installed record may still sit in the log's
//     unsynced tail — and no page image may reach the store file before
//     the records covering it are on disk, or a crash would durably keep
//     partial effects of a transaction whose record died with that tail.
//  2. Flush the store: a new file with every page, fsynced and renamed
//     over the old one (see Store.Flush).
//  3. Write relocs.db: the relocation table's base must cover the
//     relocations whose records the truncation retires.
//  4. Truncate the whole log.
//
// A crash in 2 leaves the old store file; a crash after it and before 4
// leaves the new one, with the log intact and forced past every record
// it covers, so replay rewrites the same bytes. The truncation shrinks
// the file in place, so no crash leaves a half-cut log.
func (s *Server) Checkpoint() error {
	if err := s.checkpoint(true); err != nil {
		return s.failStop(err)
	}
	s.metrics.checkpoints.Inc()
	return nil
}

// checkpoint runs Checkpoint's four steps under the engine lock. With
// open set it refuses a closed server: Close checkpoints under this lock
// too, once it has marked the server closed, so a checkpoint that sees it
// open runs before Close's.
func (s *Server) checkpoint(open bool) error {
	held := s.lockEngine()
	defer s.unlockEngine(held)
	if open && s.closedFlag.Load() {
		if failed := s.Failed(); failed != nil {
			return failed
		}
		return fmt.Errorf("live: server closed")
	}
	if err := s.wal.ForceTo(s.wal.tail()); err != nil {
		return err
	}
	if err := s.store.Flush(); err != nil {
		return err
	}
	s.metrics.flushPages.Add(int64(s.store.NumPages()))
	if s.relocs != nil {
		if err := s.relocs.save(s.dir); err != nil {
			return err
		}
	}
	if err := cpCheckpointMid.Check(); err != nil {
		return err
	}
	return s.wal.Truncate()
}
