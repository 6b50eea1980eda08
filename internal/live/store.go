// Package live is a real, runnable page-server OODBMS built on the same
// protocol core as the simulator: a goroutine-concurrent server with a
// file-backed page store and write-ahead log, clients with page caches and
// callback handling, and pluggable transports (in-process channels or
// binary-framed TCP). It implements all five granularity protocols; PS-AA (adaptive
// locking with adaptive callbacks) is the recommended default, as in the
// paper's conclusions.
package live

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// latchShards is the page-latch shard count: pages hash onto a fixed set
// of RWMutexes, trading a little false sharing for a bounded footprint.
const latchShards = 64

// pageLatches synchronizes the off-lock payload path with commit
// installs: the server reads page/object payloads for staged grants
// without holding its engine lock, while commit processing (still under
// the engine lock) installs afterimages. Readers take the page's latch
// shared, installs take it exclusive — so a payload is never torn, and
// because installs also still run under the engine lock, a payload read
// under the latch is exactly the store state some engine step exposed.
type pageLatches [latchShards]sync.RWMutex

func (l *pageLatches) shard(p core.PageID) *sync.RWMutex {
	return &l[uint64(p)%latchShards]
}

// storeMagic identifies a store file.
const storeMagic = 0x0DB5_94AA

// Crash points on the store's flush path (see internal/fault): a crash
// with some pages written, and a crash after all writes but before the
// fsync. Both leave the WAL un-truncated, so replay must repair them.
var (
	cpFlushPartial = fault.Register("store.flush.partial")
	cpFlushPreSync = fault.Register("store.flush.pre-sync")
)

// Store is a fixed-page database file: a header page followed by DBPages
// pages of PageSize bytes, each page carrying ObjsPerPage fixed-size
// object slots and a trailing CRC. The whole database is mapped into an
// in-memory frame table (databases at the paper's scale are megabytes);
// Flush writes dirty frames back.
type Store struct {
	f           *os.File
	pageSize    int
	objsPerPage int
	numPages    int

	frames [][]byte
	dirty  []bool

	// latches synchronizes off-lock payload reads with commit installs
	// (see pageLatches). Flush also takes each page's latch for the
	// copy + dirty-clear pair. The open/create paths alone skip it
	// (nothing else can hold the store yet).
	latches pageLatches
}

// payload returns the per-page payload size (page minus CRC trailer).
func (s *Store) payload() int { return s.pageSize - 4 }

// ObjSize returns the fixed object slot size.
func (s *Store) ObjSize() int { return s.payload() / s.objsPerPage }

// NumPages returns the database size in pages.
func (s *Store) NumPages() int { return s.numPages }

// ObjsPerPage returns the page fan-out.
func (s *Store) ObjsPerPage() int { return s.objsPerPage }

// CreateStore creates (truncating) a store file with zeroed pages.
func CreateStore(path string, pageSize, objsPerPage, numPages int) (*Store, error) {
	if pageSize < 64 || objsPerPage <= 0 || numPages <= 0 {
		return nil, fmt.Errorf("live: bad store geometry %d/%d/%d", pageSize, objsPerPage, numPages)
	}
	if (pageSize-4)/objsPerPage == 0 {
		return nil, fmt.Errorf("live: page too small for %d objects", objsPerPage)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, pageSize: pageSize, objsPerPage: objsPerPage, numPages: numPages}
	s.frames = make([][]byte, numPages)
	s.dirty = make([]bool, numPages)
	for i := range s.frames {
		s.frames[i] = make([]byte, s.payload())
		s.dirty[i] = true
	}
	if err := s.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	if err := s.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenStore opens an existing store file, verifying geometry and page
// checksums.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 20)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("live: reading store header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != storeMagic {
		f.Close()
		return nil, fmt.Errorf("live: %s is not a store file", path)
	}
	s := &Store{
		f:           f,
		pageSize:    int(binary.LittleEndian.Uint32(hdr[4:])),
		objsPerPage: int(binary.LittleEndian.Uint32(hdr[8:])),
		numPages:    int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	s.frames = make([][]byte, s.numPages)
	s.dirty = make([]bool, s.numPages)
	buf := make([]byte, s.pageSize)
	for p := 0; p < s.numPages; p++ {
		if _, err := f.ReadAt(buf, int64(s.pageSize)*int64(p+1)); err != nil {
			f.Close()
			return nil, fmt.Errorf("live: reading page %d: %w", p, err)
		}
		want := binary.LittleEndian.Uint32(buf[s.payload():])
		if got := crc32.ChecksumIEEE(buf[:s.payload()]); got != want {
			f.Close()
			return nil, fmt.Errorf("live: page %d checksum mismatch (%08x != %08x)", p, got, want)
		}
		s.frames[p] = append([]byte(nil), buf[:s.payload()]...)
	}
	return s, nil
}

func (s *Store) writeHeader() error {
	hdr := make([]byte, 20)
	binary.LittleEndian.PutUint32(hdr[0:], storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(s.pageSize))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(s.objsPerPage))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.numPages))
	_, err := s.f.WriteAt(hdr, 0)
	return err
}

// checkPage validates a page id.
func (s *Store) checkPage(p core.PageID) error {
	if p < 0 || int(p) >= s.numPages {
		return fmt.Errorf("live: page %d out of range [0,%d)", p, s.numPages)
	}
	return nil
}

// checkObj validates an object id.
func (s *Store) checkObj(o core.ObjID) error {
	if err := s.checkPage(o.Page); err != nil {
		return err
	}
	if int(o.Slot) >= s.objsPerPage {
		return fmt.Errorf("live: slot %d out of range [0,%d)", o.Slot, s.objsPerPage)
	}
	return nil
}

// ReadPage returns a copy of page p's payload. Safe to call without the
// server lock: the page latch (shared) excludes concurrent installs.
func (s *Store) ReadPage(p core.PageID) ([]byte, error) { return s.readPage(p, newBuf) }

// newBuf is the alloc of a read that has no buffer to reuse.
func newBuf(n int) []byte { return make([]byte, n) }

// readPage is ReadPage into a buffer of the caller's: alloc(n) returns n
// bytes nobody else holds, and every one of them is overwritten.
func (s *Store) readPage(p core.PageID, alloc func(n int) []byte) ([]byte, error) {
	if err := s.checkPage(p); err != nil {
		return nil, err
	}
	out := alloc(s.payload())
	l := s.latches.shard(p)
	l.RLock()
	copy(out, s.frames[p])
	l.RUnlock()
	return out, nil
}

// ReadObj returns a copy of object o's bytes. Safe to call without the
// server lock (see ReadPage).
func (s *Store) ReadObj(o core.ObjID) ([]byte, error) { return s.readObj(o, newBuf) }

// readObj is ReadObj into a buffer of the caller's (see readPage).
func (s *Store) readObj(o core.ObjID, alloc func(n int) []byte) ([]byte, error) {
	if err := s.checkObj(o); err != nil {
		return nil, err
	}
	sz := s.ObjSize()
	off := int(o.Slot) * sz
	out := alloc(sz)
	l := s.latches.shard(o.Page)
	l.RLock()
	copy(out, s.frames[o.Page][off:])
	l.RUnlock()
	return out, nil
}

// appendPage appends page p's payload to dst as a wire byte field
// (appendBytes), copied straight out of the frame under the shared page
// latch: what ReadPage returns, without the intermediate copy.
func (s *Store) appendPage(dst []byte, p core.PageID) ([]byte, error) {
	if err := s.checkPage(p); err != nil {
		return dst, err
	}
	l := s.latches.shard(p)
	l.RLock()
	dst = appendBytes(dst, s.frames[p])
	l.RUnlock()
	return dst, nil
}

// appendObj is appendPage for one object (see ReadObj).
func (s *Store) appendObj(dst []byte, o core.ObjID) ([]byte, error) {
	if err := s.checkObj(o); err != nil {
		return dst, err
	}
	sz := s.ObjSize()
	off := int(o.Slot) * sz
	l := s.latches.shard(o.Page)
	l.RLock()
	dst = appendBytes(dst, s.frames[o.Page][off:off+sz])
	l.RUnlock()
	return dst, nil
}

// WriteObj installs an object afterimage (data must be at most ObjSize;
// shorter images are zero-padded). The exclusive page latch fences the
// bytes against concurrent off-lock payload readers.
func (s *Store) WriteObj(o core.ObjID, data []byte) error {
	if err := s.checkObj(o); err != nil {
		return err
	}
	sz := s.ObjSize()
	if len(data) > sz {
		return fmt.Errorf("live: object %v image %d bytes exceeds slot size %d", o, len(data), sz)
	}
	off := int(o.Slot) * sz
	l := s.latches.shard(o.Page)
	l.Lock()
	slot := s.frames[o.Page][off : off+sz]
	n := copy(slot, data)
	for i := n; i < sz; i++ {
		slot[i] = 0
	}
	s.dirty[o.Page] = true
	l.Unlock()
	return nil
}

// Flush writes all dirty pages (with checksums) to the file and syncs.
// Each page's frame copy and dirty-flag clear happen together under its
// exclusive latch, so an install racing the flush either lands before the
// copy (flushed now) or after it (re-dirtying the page for the next
// flush). On a write error the page is re-marked dirty before returning —
// the flag may only go clean once the bytes are actually in the file, or
// a later checkpoint would truncate the WAL record that still covers
// them.
func (s *Store) Flush() error {
	buf := make([]byte, s.pageSize)
	wrote := false
	for p := 0; p < s.numPages; p++ {
		l := s.latches.shard(core.PageID(p))
		l.Lock()
		if !s.dirty[p] {
			l.Unlock()
			continue
		}
		if wrote {
			if err := cpFlushPartial.Check(); err != nil {
				l.Unlock()
				return err
			}
		}
		copy(buf, s.frames[p])
		s.dirty[p] = false
		l.Unlock()
		binary.LittleEndian.PutUint32(buf[s.payload():], crc32.ChecksumIEEE(buf[:s.payload()]))
		if _, err := s.f.WriteAt(buf, int64(s.pageSize)*int64(p+1)); err != nil {
			l.Lock()
			s.dirty[p] = true
			l.Unlock()
			return err
		}
		wrote = true
	}
	if err := cpFlushPreSync.Check(); err != nil {
		return err
	}
	return s.f.Sync()
}

// DirtyPages returns how many pages are dirty in memory (unflushed).
func (s *Store) DirtyPages() int {
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// closeRaw closes the file without flushing — a dying process's view: the
// in-memory frame table is lost, disk keeps whatever the last completed
// flush (plus any partial one) left there.
func (s *Store) closeRaw() error { return s.f.Close() }

var _ io.Closer = (*Store)(nil)
