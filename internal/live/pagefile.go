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

// Crash points on the page file's flush (see internal/fault): a crash
// with some pages written, and a crash after all writes but before the
// fsync. Both hit the temporary file, so data.db keeps the last completed
// flush.
var (
	cpFlushPartial = fault.Register("store.flush.partial")
	cpFlushPreSync = fault.Register("store.flush.pre-sync")
)

// pageFile is the file layer under both store kinds: a header page
// followed by pages of pageSize bytes, each a payload and a trailing CRC.
// The header is five little-endian uint32s: magic, page size, objects per
// page, home pages, and the total frame count (home pages plus the
// variable store's overflow).
// The whole database lives in an in-memory frame table (databases at the
// paper's scale are megabytes); the file is only read at open and
// rewritten whole by Flush, which never changes the file in place.
type pageFile struct {
	path        string
	magic       uint32
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

func newPageFile(path string, magic uint32, pageSize, objsPerPage, numPages int) *pageFile {
	return &pageFile{path: path, magic: magic, pageSize: pageSize, objsPerPage: objsPerPage, numPages: numPages}
}

// payload returns the per-page payload size (page minus CRC trailer).
func (f *pageFile) payload() int { return f.pageSize - 4 }

// NumPages returns the number of home pages.
func (f *pageFile) NumPages() int { return f.numPages }

// ObjsPerPage returns the per-page slot count.
func (f *pageFile) ObjsPerPage() int { return f.objsPerPage }

// create fills the home pages with empty() and writes the file, replacing
// any file at the path.
func (f *pageFile) create(empty func() []byte) error {
	f.frames = make([][]byte, f.numPages)
	for i := range f.frames {
		f.frames[i] = empty()
	}
	return f.Flush()
}

// openPageFile reads the page file at path, checking its magic, its
// geometry and every page's checksum.
func openPageFile(path string, magic uint32) (*pageFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < 20 {
		return nil, fmt.Errorf("live: reading %s header: %w", path, io.ErrUnexpectedEOF)
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != magic {
		return nil, fmt.Errorf("live: %s: bad magic %#x", path, m)
	}
	f := newPageFile(path, magic,
		int(binary.LittleEndian.Uint32(buf[4:])),
		int(binary.LittleEndian.Uint32(buf[8:])),
		int(binary.LittleEndian.Uint32(buf[12:])))
	if f.pageSize < 64 || f.objsPerPage <= 0 || f.numPages <= 0 {
		return nil, fmt.Errorf("live: %s: bad geometry %d/%d/%d", path, f.pageSize, f.objsPerPage, f.numPages)
	}
	// Fixed-slot files written before the total was recorded hold zero
	// there; they have no overflow, so the home pages are the total.
	total := max(int(binary.LittleEndian.Uint32(buf[16:])), f.numPages)
	if len(buf)/f.pageSize < total+1 {
		return nil, fmt.Errorf("live: %s: %d bytes, too short for %d pages of %d", path, len(buf), total, f.pageSize)
	}
	f.frames = make([][]byte, total)
	for p := range f.frames {
		off := f.pageSize * (p + 1)
		page := buf[off : off+f.pageSize : off+f.pageSize]
		want := binary.LittleEndian.Uint32(page[f.payload():])
		if got := crc32.ChecksumIEEE(page[:f.payload()]); got != want {
			return nil, fmt.Errorf("live: page %d checksum mismatch (%08x != %08x)", p, got, want)
		}
		f.frames[p] = page[:f.payload()]
	}
	return f, nil
}

// Flush writes the whole frame table, with checksums, to a new file and
// renames it over the old one (see writeFileAtomic), so a crash at any
// point leaves either the last completed flush or this one.
func (f *pageFile) Flush() error {
	_, err := f.flush()
	return err
}

// flush is Flush, reporting how many pages it wrote.
func (f *pageFile) flush() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, errors.New("live: store closed")
	}
	// Any one shared shard synchronizes with frame-table growth, which
	// holds every shard exclusively (VStore.lockAll).
	f.latches[0].RLock()
	n := len(f.frames)
	f.latches[0].RUnlock()
	err := writeFileAtomic(f.path, func(w io.Writer) error {
		page := make([]byte, f.pageSize)
		binary.LittleEndian.PutUint32(page[0:], f.magic)
		binary.LittleEndian.PutUint32(page[4:], uint32(f.pageSize))
		binary.LittleEndian.PutUint32(page[8:], uint32(f.objsPerPage))
		binary.LittleEndian.PutUint32(page[12:], uint32(f.numPages))
		binary.LittleEndian.PutUint32(page[16:], uint32(n))
		if _, err := w.Write(page); err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			if p > 0 {
				if err := cpFlushPartial.Check(); err != nil {
					return err
				}
			}
			l := f.latches.shard(core.PageID(p))
			l.RLock()
			copy(page, f.frames[p])
			l.RUnlock()
			binary.LittleEndian.PutUint32(page[f.payload():], crc32.ChecksumIEEE(page[:f.payload()]))
			if _, err := w.Write(page); err != nil {
				return err
			}
		}
		return cpFlushPreSync.Check()
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Close flushes the store and closes it.
func (f *pageFile) Close() error {
	err := f.Flush()
	f.closeRaw()
	return err
}

// closeRaw closes the store without flushing — a dying process's view:
// the in-memory frame table is lost, and the file keeps whatever the last
// completed flush wrote. No flush after it touches the file.
func (f *pageFile) closeRaw() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
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
