// Package live is a real, runnable page-server OODBMS built on the same
// protocol core as the simulator: a goroutine-concurrent server with a
// file-backed page store and write-ahead log, clients with page caches and
// callback handling, and pluggable transports (in-process channels or
// binary-framed TCP). It implements all five granularity protocols; PS-AA (adaptive
// locking with adaptive callbacks) is the recommended default, as in the
// paper's conclusions.
package live

import (
	"fmt"

	"repro/internal/core"
)

// storeMagic identifies a store file.
const storeMagic = 0x0DB5_94AA

// Store is a fixed-page database: DBPages pages of PageSize bytes (see
// pageFile), each page carrying ObjsPerPage fixed-size object slots ahead
// of its CRC. Reads take the page's latch shared, installs exclusive.
type Store struct {
	*pageFile
}

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
	s := &Store{newPageFile(path, storeMagic, pageSize, objsPerPage, numPages)}
	if err := s.create(func() []byte { return make([]byte, s.payload()) }); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStore opens an existing store file, verifying geometry and page
// checksums.
func OpenStore(path string) (*Store, error) {
	f, err := openPageFile(path, storeMagic)
	if err != nil {
		return nil, err
	}
	return &Store{f}, nil
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
