package live

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/core"
)

// VStore is the variable-size object store the paper's Section 6.1 calls
// for: objects can grow and shrink across updates. Pages use a slotted
// layout (slot directory + heap), are compacted in place when fragmented,
// and an object that no longer fits its home page is moved to an overflow
// region with a forwarding pointer left in the home slot (the standard
// technique the paper cites from [Astr76]). Reads always resolve through
// the home slot, so object identity never changes.
//
// Page layout (payload = pageSize - 4-byte CRC trailer):
//
//	[0:2]   heapStart (offset of the lowest heap byte used)
//	[2:..]  slot directory: objsPerPage entries of (off uint16, len uint16)
//	        off == 0xFFFF: slot empty (never written)
//	        len == fwdLen: slot holds an 8-byte forwarding pointer
//	[heapStart:] object bytes, allocated downward from the end
//
// The overflow region starts at page numPages and grows as needed; each
// overflow page uses the same layout. Forwarded objects occupy exactly one
// overflow slot and never forward twice (a grown-again object is relocated
// within the overflow region).
//
// The page file (see pageFile) holds the home pages, then the overflow
// region. Page latching is hash-sharded like the fixed-slot Store's. The
// common operations are page-local — a payload read, an in-place rewrite,
// a home-page compaction — and take only the home page's latch (shared
// for readers, exclusive for installs), so traffic on disjoint pages never
// serializes. A write that must touch more than its home page (forwarding
// to the overflow region, freeing or relocating an overflow placement,
// growing the frames slice) instead acquires all latch shards in index
// order, which excludes every page-local operation at once; overflow
// pages therefore mutate only under the full sweep, and a reader chasing
// a forward pointer needs no second latch — its shared home latch already
// excludes any writer that could reach the target.
type VStore struct {
	*pageFile
}

func (s *VStore) latch(page int) *sync.RWMutex {
	return s.latches.shard(core.PageID(page))
}

// lockAll acquires every latch shard exclusively, in index order (the
// fixed order makes concurrent sweeps deadlock-free). It fences the whole
// store for the multi-page write paths.
func (s *VStore) lockAll() {
	for i := range s.latches {
		s.latches[i].Lock()
	}
}

func (s *VStore) unlockAll() {
	for i := len(s.latches) - 1; i >= 0; i-- {
		s.latches[i].Unlock()
	}
}

const (
	slotEmpty = 0xFFFF
	fwdLen    = 0xFFFF // directory len marking a forwarding pointer
	fwdBytes  = 8      // encoded forward pointer: page uint32, slot uint16, pad
	vMagic    = 0x0DB5_94AB
)

func (s *VStore) dirSize() int { return 2 + 4*s.objsPerPage }

// MaxObjSize is the largest storable object: the page heap minus the
// per-slot forward-pointer reservation (every other slot must always be
// able to hold at least a forwarding pointer, or an overflow could become
// unrecordable).
func (s *VStore) MaxObjSize() int {
	return s.payload() - s.dirSize() - fwdBytes*(s.objsPerPage-1)
}

// CreateVStore creates (replacing) a variable-object store.
func CreateVStore(path string, pageSize, objsPerPage, numPages int) (*VStore, error) {
	s := &VStore{newPageFile(path, vMagic, pageSize, objsPerPage, numPages)}
	if pageSize < 64 || objsPerPage <= 0 || numPages <= 0 || s.MaxObjSize() < 16 {
		return nil, fmt.Errorf("live: bad vstore geometry %d/%d/%d", pageSize, objsPerPage, numPages)
	}
	if err := s.create(s.emptyPage); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenVStore opens an existing variable-object store, verifying checksums.
func OpenVStore(path string) (*VStore, error) {
	f, err := openPageFile(path, vMagic)
	if err != nil {
		return nil, err
	}
	return &VStore{f}, nil
}

// emptyPage builds a fresh payload: empty directory, heap at the end.
func (s *VStore) emptyPage() []byte {
	b := make([]byte, s.payload())
	binary.LittleEndian.PutUint16(b[0:], uint16(s.payload()))
	for i := 0; i < s.objsPerPage; i++ {
		binary.LittleEndian.PutUint16(b[2+4*i:], slotEmpty)
	}
	return b
}

// ---- Slot directory accessors ----

func (s *VStore) slotAt(frame []byte, slot int) (off, ln int) {
	off = int(binary.LittleEndian.Uint16(frame[2+4*slot:]))
	ln = int(binary.LittleEndian.Uint16(frame[2+4*slot+2:]))
	return off, ln
}

func (s *VStore) setSlot(frame []byte, slot, off, ln int) {
	binary.LittleEndian.PutUint16(frame[2+4*slot:], uint16(off))
	binary.LittleEndian.PutUint16(frame[2+4*slot+2:], uint16(ln))
}

func (s *VStore) heapStart(frame []byte) int { return int(binary.LittleEndian.Uint16(frame[0:])) }
func (s *VStore) setHeapStart(frame []byte, v int) {
	binary.LittleEndian.PutUint16(frame[0:], uint16(v))
}

// usedBytes sums live object bytes on a page (for compaction decisions).
func (s *VStore) usedBytes(frame []byte) int {
	n := 0
	for i := 0; i < s.objsPerPage; i++ {
		off, ln := s.slotAt(frame, i)
		if off == slotEmpty {
			continue
		}
		if ln == fwdLen {
			n += fwdBytes
		} else {
			n += ln
		}
	}
	return n
}

// compact rewrites the heap contiguously, reclaiming holes.
func (s *VStore) compact(p int) {
	old := s.frames[p]
	fresh := s.emptyPage()
	heap := s.payload()
	for i := 0; i < s.objsPerPage; i++ {
		off, ln := s.slotAt(old, i)
		if off == slotEmpty {
			continue
		}
		size := ln
		if ln == fwdLen {
			size = fwdBytes
		}
		heap -= size
		copy(fresh[heap:], old[off:off+size])
		s.setSlot(fresh, i, heap, ln)
	}
	s.setHeapStart(fresh, heap)
	s.frames[p] = fresh
}

// freeSpace returns contiguous free bytes; afterCompact also counts holes.
func (s *VStore) freeSpace(p int, afterCompact bool) int {
	frame := s.frames[p]
	if afterCompact {
		return s.payload() - s.dirSize() - s.usedBytes(frame)
	}
	return s.heapStart(frame) - s.dirSize()
}

// reservedBytes computes the page's committed capacity excluding one slot:
// each slot accounts for its placement (value or pointer), floored at
// fwdBytes so that any slot can always be converted to a forward pointer.
func (s *VStore) reservedBytes(frame []byte, except int) int {
	total := 0
	for i := 0; i < s.objsPerPage; i++ {
		if i == except {
			continue
		}
		off, ln := s.slotAt(frame, i)
		size := 0
		if off != slotEmpty {
			if ln == fwdLen {
				size = fwdBytes
			} else {
				size = ln
			}
		}
		if size < fwdBytes {
			size = fwdBytes
		}
		total += size
	}
	return total
}

// fitsInline reports whether a value of n bytes may be placed inline in
// the given home slot without violating the per-slot pointer reservation.
func (s *VStore) fitsInline(p, slot, n int) bool {
	eff := n
	if eff < fwdBytes {
		eff = fwdBytes
	}
	return s.reservedBytes(s.frames[p], slot)+eff <= s.payload()-s.dirSize()
}

// allocInPage reserves n heap bytes on page p (compacting if that helps)
// and returns the offset, or -1 if the page cannot hold them.
func (s *VStore) allocInPage(p, n int) int {
	if s.freeSpace(p, false) < n {
		if s.freeSpace(p, true) < n {
			return -1
		}
		s.compact(p)
	}
	frame := s.frames[p]
	off := s.heapStart(frame) - n
	s.setHeapStart(frame, off)
	return off
}

// ---- Object operations ----

func (s *VStore) checkHome(o objAddr) error {
	if o.page < 0 || o.page >= s.numPages || o.slot < 0 || o.slot >= s.objsPerPage {
		return fmt.Errorf("live: object %d.%d out of range", o.page, o.slot)
	}
	return nil
}

// objAddr is an internal (page, slot) pair that may address overflow pages.
type objAddr struct{ page, slot int }

func (s *VStore) readFwd(frame []byte, off int) objAddr {
	return objAddr{
		page: int(binary.LittleEndian.Uint32(frame[off:])),
		slot: int(binary.LittleEndian.Uint16(frame[off+4:])),
	}
}

func (s *VStore) writeFwd(frame []byte, off int, a objAddr) {
	binary.LittleEndian.PutUint32(frame[off:], uint32(a.page))
	binary.LittleEndian.PutUint16(frame[off+4:], uint16(a.slot))
	binary.LittleEndian.PutUint16(frame[off+6:], 0)
}

// ReadVObj returns the current bytes of the object (nil if never
// written). Safe to call without the server lock: the shared home latch
// excludes same-page installs, and the multi-page writers (which are the
// only ones that can touch an overflow target) hold every latch shard.
func (s *VStore) ReadVObj(page, slot int) ([]byte, error) {
	l := s.latch(page)
	l.RLock()
	defer l.RUnlock()
	b, err := s.viewVObj(page, slot)
	if len(b) == 0 || err != nil {
		return nil, err
	}
	return copyOf(b), nil
}

// viewVObj resolves the object through its home slot and returns its bytes
// in place (nil if never written). The caller holds the home page's latch.
func (s *VStore) viewVObj(page, slot int) ([]byte, error) {
	home := objAddr{page, slot}
	if err := s.checkHome(home); err != nil {
		return nil, err
	}
	frame := s.frames[home.page]
	off, ln := s.slotAt(frame, home.slot)
	if off == slotEmpty {
		return nil, nil
	}
	if ln == fwdLen {
		tgt := s.readFwd(frame, off)
		tFrame := s.frames[tgt.page]
		tOff, tLn := s.slotAt(tFrame, tgt.slot)
		if tOff == slotEmpty || tLn == fwdLen {
			return nil, fmt.Errorf("live: dangling forward pointer %d.%d -> %d.%d", page, slot, tgt.page, tgt.slot)
		}
		return tFrame[tOff : tOff+tLn], nil
	}
	return frame[off : off+ln], nil
}

// IsForwarded reports whether the object currently lives in the overflow
// region (diagnostics and tests).
func (s *VStore) IsForwarded(page, slot int) bool {
	l := s.latch(page)
	l.RLock()
	defer l.RUnlock()
	off, ln := s.slotAt(s.frames[page], slot)
	return off != slotEmpty && ln == fwdLen
}

// WriteVObj installs a new value for the object, relocating as needed.
// The common case — the object is not forwarded and the new value fits
// its home page (in place or after a home-page compaction) — runs under
// only the home page's exclusive latch, so installs on disjoint pages
// proceed in parallel. Anything that must touch a second page (forwarded
// source or target, overflow allocation or free, frame table growth)
// falls through to the full latch sweep, which fences every page at
// once.
func (s *VStore) WriteVObj(page, slot int, data []byte) error {
	home := objAddr{page, slot}
	if err := s.checkHome(home); err != nil {
		return err
	}
	if len(data) > s.MaxObjSize() {
		return fmt.Errorf("live: object %d bytes exceeds max %d", len(data), s.MaxObjSize())
	}

	// Fast path: home-page-only writes under the page latch.
	l := s.latch(home.page)
	l.Lock()
	frame := s.frames[home.page]
	off, ln := s.slotAt(frame, home.slot)
	if off == slotEmpty || ln != fwdLen { // no overflow placement to free
		if off != slotEmpty && len(data) <= ln {
			copy(frame[off:], data)
			s.setSlot(frame, home.slot, off, len(data))
			l.Unlock()
			return nil
		}
		// fitsInline excludes the home slot from the reservation, so the
		// decision is the same whether the old placement is dropped before
		// or after — and keeping it until we commit to this path means the
		// slow path below sees an untouched page if we bail.
		if s.fitsInline(home.page, home.slot, len(data)) {
			s.setSlot(frame, home.slot, slotEmpty, 0)
			newOff := s.allocInPage(home.page, len(data))
			if newOff < 0 {
				l.Unlock()
				return fmt.Errorf("live: internal: reservation admitted %dB but page %d is full", len(data), home.page)
			}
			frame = s.frames[home.page] // compaction may have replaced it
			copy(frame[newOff:], data)
			s.setSlot(frame, home.slot, newOff, len(data))
			l.Unlock()
			return nil
		}
	}
	l.Unlock()

	// Slow path: forwarded placement or overflow required. Re-reads the
	// slot under the full latch sweep — nothing decided above is trusted.
	s.lockAll()
	defer s.unlockAll()
	frame = s.frames[home.page]
	off, ln = s.slotAt(frame, home.slot)

	// Drop any existing placement first (the heap hole is reclaimed by a
	// later compaction) and remember a forwarded target for freeing.
	var oldFwd *objAddr
	if off != slotEmpty && ln == fwdLen {
		a := s.readFwd(frame, off)
		oldFwd = &a
	}

	// Try in place: exact or smaller fits the current placement directly.
	if off != slotEmpty && ln != fwdLen && len(data) <= ln {
		copy(frame[off:], data)
		s.setSlot(frame, home.slot, off, len(data))
		if oldFwd != nil {
			s.freeSlot(*oldFwd)
		}
		return nil
	}

	// Allocate in the home page if the reservation discipline allows it.
	s.setSlot(frame, home.slot, slotEmpty, 0) // free old placement for compaction
	if s.fitsInline(home.page, home.slot, len(data)) {
		newOff := s.allocInPage(home.page, len(data))
		if newOff < 0 {
			return fmt.Errorf("live: internal: reservation admitted %dB but page %d is full", len(data), home.page)
		}
		frame = s.frames[home.page] // compaction may have replaced it
		copy(frame[newOff:], data)
		s.setSlot(frame, home.slot, newOff, len(data))
		if oldFwd != nil {
			s.freeSlot(*oldFwd)
		}
		return nil
	}

	// Overflow: place the value in the overflow region and leave a
	// forwarding pointer at home.
	if oldFwd != nil {
		s.freeSlot(*oldFwd)
	}
	tgt, err := s.allocOverflow(len(data))
	if err != nil {
		return err
	}
	tFrame := s.frames[tgt.page]
	tOff, _ := s.slotAt(tFrame, tgt.slot)
	copy(tFrame[tOff:], data)

	frame = s.frames[home.page]
	fOff := s.allocInPage(home.page, fwdBytes)
	if fOff < 0 {
		return fmt.Errorf("live: page %d cannot hold a forward pointer", home.page)
	}
	frame = s.frames[home.page]
	s.writeFwd(frame, fOff, tgt)
	s.setSlot(frame, home.slot, fOff, fwdLen)
	return nil
}

// freeSlot releases an overflow placement.
func (s *VStore) freeSlot(a objAddr) {
	frame := s.frames[a.page]
	s.setSlot(frame, a.slot, slotEmpty, 0)
}

// allocOverflow finds (or creates) an overflow page with a free slot and
// enough space, reserving the bytes and returning the address.
func (s *VStore) allocOverflow(n int) (objAddr, error) {
	for p := s.numPages; p < len(s.frames); p++ {
		slot := s.freeSlotIn(p)
		if slot < 0 {
			continue
		}
		if off := s.allocInPage(p, n); off >= 0 {
			s.setSlot(s.frames[p], slot, off, n)
			return objAddr{p, slot}, nil
		}
	}
	// Grow the overflow region.
	p := len(s.frames)
	if p >= 1<<31 {
		return objAddr{}, fmt.Errorf("live: overflow region exhausted")
	}
	s.frames = append(s.frames, s.emptyPage())
	off := s.allocInPage(p, n)
	s.setSlot(s.frames[p], 0, off, n)
	return objAddr{p, 0}, nil
}

func (s *VStore) freeSlotIn(p int) int {
	frame := s.frames[p]
	for i := 0; i < s.objsPerPage; i++ {
		if off, _ := s.slotAt(frame, i); off == slotEmpty {
			return i
		}
	}
	return -1
}

// OverflowPages returns the current overflow region size (diagnostics).
func (s *VStore) OverflowPages() int {
	// Any one shared shard synchronizes with the frame-growth path, which
	// holds every shard exclusively.
	s.latches[0].RLock()
	defer s.latches[0].RUnlock()
	return len(s.frames) - s.numPages
}

// ---- objectStore adapter (live server integration) ----

// ReadPage is unsupported: variable-object databases ship objects by
// value (OS protocol); raw page images are server-internal.
func (s *VStore) ReadPage(p core.PageID) ([]byte, error) {
	return nil, fmt.Errorf("live: page shipping unsupported with variable-size objects")
}

func (s *VStore) readPage(p core.PageID, alloc func(n int) []byte) ([]byte, error) {
	return s.ReadPage(p)
}

// ReadObj resolves the object through its home slot. Objects never
// written return a zero-length value.
func (s *VStore) ReadObj(o core.ObjID) ([]byte, error) { return s.readObj(o, newBuf) }

// readObj is ReadObj into a buffer of the caller's (see Store.readPage),
// copied in place under the home latch.
func (s *VStore) readObj(o core.ObjID, alloc func(n int) []byte) ([]byte, error) {
	l := s.latch(int(o.Page))
	l.RLock()
	defer l.RUnlock()
	b, err := s.viewVObj(int(o.Page), int(o.Slot))
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return []byte{}, nil
	}
	out := alloc(len(b))
	copy(out, b)
	return out, nil
}

func (s *VStore) appendPage(dst []byte, p core.PageID) ([]byte, error) {
	_, err := s.ReadPage(p)
	return dst, err
}

// appendObj appends what ReadObj returns to dst as a wire byte field,
// copied in place under the home latch.
func (s *VStore) appendObj(dst []byte, o core.ObjID) ([]byte, error) {
	l := s.latch(int(o.Page))
	l.RLock()
	defer l.RUnlock()
	b, err := s.viewVObj(int(o.Page), int(o.Slot))
	if err != nil {
		return dst, err
	}
	if b == nil {
		b = []byte{}
	}
	return appendBytes(dst, b), nil
}

// WriteObj installs an afterimage, relocating the object as needed.
func (s *VStore) WriteObj(o core.ObjID, data []byte) error {
	return s.WriteVObj(int(o.Page), int(o.Slot), data)
}

// ObjSize reports the maximum object size (the advertised write limit).
func (s *VStore) ObjSize() int { return s.MaxObjSize() }
