// Package live is a real, runnable page-server OODBMS built on the same
// protocol core as the simulator: a goroutine-concurrent server with a
// file-backed page store and write-ahead log, clients with page caches and
// callback handling, and pluggable transports (in-process channels or
// binary-framed TCP). It implements all five granularity protocols; PS-AA (adaptive
// locking with adaptive callbacks) is the recommended default, as in the
// paper's conclusions.
package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// storeMagic identifies a store file.
const storeMagic = 0x0DB5_94AA

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

// Crash points on the store's flush (see internal/fault): a crash with
// some pages written, and a crash after all writes but before the fsync.
// Both hit the temporary file, so data.db keeps the last completed flush.
var (
	cpFlushPartial = fault.Register("store.flush.partial")
	cpFlushPreSync = fault.Register("store.flush.pre-sync")
)

// Store is a fixed-page database: a header page followed by numPages
// pages of pageSize bytes, each a payload of ObjsPerPage fixed-size
// object slots and a trailing CRC. The header is five little-endian
// uint32s: magic, page size, objects per page, pages, and the page count
// again (the frame total; files from before it was recorded hold zero
// there). The whole database lives in an in-memory frame table (databases
// at the paper's scale are megabytes); the file is only read at open and
// rewritten whole by Flush, which never changes the file in place. Reads
// take the page's latch shared, installs exclusive.
type Store struct {
	path        string
	pageSize    int
	objsPerPage int
	numPages    int

	frames [][]byte // page payloads, in file order

	// latches synchronizes off-lock payload reads with commit installs
	// (see pageLatches); Flush copies each frame under its page's shared
	// latch.
	latches pageLatches

	// mu serializes flushes (they share one temporary file) and orders
	// them against closeRaw: once closed is set, no flush renames over
	// the file.
	mu     sync.Mutex
	closed bool
}

// payload returns the per-page payload size (page minus CRC trailer).
func (s *Store) payload() int { return s.pageSize - 4 }

// NumPages returns the number of pages.
func (s *Store) NumPages() int { return s.numPages }

// ObjsPerPage returns the per-page slot count.
func (s *Store) ObjsPerPage() int { return s.objsPerPage }

// ObjSize returns the fixed object slot size.
func (s *Store) ObjSize() int { return s.payload() / s.objsPerPage }

// CreateStore creates (replacing) a store file with zeroed pages.
func CreateStore(path string, pageSize, objsPerPage, numPages int) (*Store, error) {
	if pageSize < 64 || objsPerPage <= 0 || numPages <= 0 {
		return nil, fmt.Errorf("live: bad store geometry %d/%d/%d", pageSize, objsPerPage, numPages)
	}
	if (pageSize-4)/objsPerPage == 0 {
		return nil, fmt.Errorf("live: page too small for %d objects", objsPerPage)
	}
	s := &Store{path: path, pageSize: pageSize, objsPerPage: objsPerPage, numPages: numPages}
	s.frames = make([][]byte, numPages)
	for i := range s.frames {
		s.frames[i] = make([]byte, s.payload())
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStore opens an existing store file, verifying its magic, its
// geometry and every page's checksum.
func OpenStore(path string) (*Store, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < 20 {
		return nil, fmt.Errorf("live: reading %s header: %w", path, io.ErrUnexpectedEOF)
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != storeMagic {
		return nil, fmt.Errorf("live: %s: bad magic %#x", path, m)
	}
	s := &Store{path: path,
		pageSize:    int(binary.LittleEndian.Uint32(buf[4:])),
		objsPerPage: int(binary.LittleEndian.Uint32(buf[8:])),
		numPages:    int(binary.LittleEndian.Uint32(buf[12:])),
	}
	if s.pageSize < 64 || s.objsPerPage <= 0 || s.numPages <= 0 {
		return nil, fmt.Errorf("live: %s: bad geometry %d/%d/%d", path, s.pageSize, s.objsPerPage, s.numPages)
	}
	if len(buf)/s.pageSize < s.numPages+1 {
		return nil, fmt.Errorf("live: %s: %d bytes, too short for %d pages of %d", path, len(buf), s.numPages, s.pageSize)
	}
	s.frames = make([][]byte, s.numPages)
	for p := range s.frames {
		off := s.pageSize * (p + 1)
		page := buf[off : off+s.pageSize : off+s.pageSize]
		want := binary.LittleEndian.Uint32(page[s.payload():])
		if got := crc32.ChecksumIEEE(page[:s.payload()]); got != want {
			return nil, fmt.Errorf("live: page %d checksum mismatch (%08x != %08x)", p, got, want)
		}
		s.frames[p] = page[:s.payload()]
	}
	return s, nil
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
	l.Unlock()
	return nil
}

// Flush writes every page, with checksums, to a new file and renames it
// over the old one (see writeFileAtomic), so a crash at any point leaves
// either the last completed flush or this one.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("live: store closed")
	}
	return writeFileAtomic(s.path, func(w io.Writer) error {
		page := make([]byte, s.pageSize)
		binary.LittleEndian.PutUint32(page[0:], storeMagic)
		binary.LittleEndian.PutUint32(page[4:], uint32(s.pageSize))
		binary.LittleEndian.PutUint32(page[8:], uint32(s.objsPerPage))
		binary.LittleEndian.PutUint32(page[12:], uint32(s.numPages))
		binary.LittleEndian.PutUint32(page[16:], uint32(s.numPages))
		if _, err := w.Write(page); err != nil {
			return err
		}
		for p := range s.frames {
			if p > 0 {
				if err := cpFlushPartial.Check(); err != nil {
					return err
				}
			}
			l := s.latches.shard(core.PageID(p))
			l.RLock()
			copy(page, s.frames[p])
			l.RUnlock()
			binary.LittleEndian.PutUint32(page[s.payload():], crc32.ChecksumIEEE(page[:s.payload()]))
			if _, err := w.Write(page); err != nil {
				return err
			}
		}
		return cpFlushPreSync.Check()
	})
}

// Close flushes the store and closes it.
func (s *Store) Close() error {
	err := s.Flush()
	s.closeRaw()
	return err
}

// closeRaw closes the store without flushing — a dying process's view:
// the in-memory frame table is lost, and the file keeps whatever the last
// completed flush wrote. No flush after it touches the file.
func (s *Store) closeRaw() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// writeFileAtomic replaces the file at path with what write produces: it
// writes path+".tmp", fsyncs it, renames it over path and fsyncs the
// directory, so a crash at any point leaves either the old file or the
// new one, never a mix.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable: without the directory fsync a crash
	// can resurrect the old file.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
