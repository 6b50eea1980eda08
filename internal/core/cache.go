package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// ClientCache is the client buffer pool state machine. In page mode
// (everything but OS) it is an LRU cache of pages where individual objects
// can be marked "unavailable" (called back) and "dirty" (updated by the
// active transaction). In object mode (OS) it is an LRU cache of objects.
//
// Pages/objects touched by the active transaction are pinned and never
// evicted; evictions accumulate as drop notices that the driver piggybacks
// on the next message to the server so the copy table stays accurate.
//
// Every step costs O(what the transaction touched), never O(cache): the
// LRU is intrusive, per-slot marks are bitsets on the entry, and the
// pinned and dirty entries are kept on lists so that commit and abort
// visit only them (DESIGN.md §18). The page table is dense: pages[p] is
// page p's entry or nil, grown to the highest page ever installed.
type ClientCache struct {
	ObjMode  bool
	Capacity int // pages (page mode) or objects (object mode)

	pages []*CachedPage
	objs  map[ObjID]*CachedObj

	// lastPage/lastObj remember the latest lookup: one reference asks
	// "readable?", "touch" and "payload" of the same entry back to back.
	lastPage *CachedPage
	lastObj  *CachedObj

	mru, lru *entry // LRU list ends; nil when empty
	n        int    // resident entries

	// The active transaction's footprint; only the pair matching ObjMode
	// is used. dirty ⊆ pinned.
	pinnedPages, dirtyPages []*CachedPage
	pinnedObjs, dirtyObjs   []*CachedObj

	droppedPages []PageID
	droppedObjs  []ObjID

	// Evictions counts total LRU evictions (stats).
	Evictions int64

	// OnDrop, when set, receives the Payload of every entry that leaves
	// the cache (eviction, purge, abort), once the cache no longer refers
	// to it, and whether the active transaction had it pinned: the driver
	// may reuse what the payload holds, unless it lent the transaction a
	// view into it.
	OnDrop func(payload any, pinned bool)
}

// entry is what a cached page and a cached object have in common: LRU
// links, identity, the two facts eviction asks about, and the driver's
// payload.
type entry struct {
	newer, older *entry
	id           ObjID // page mode: id.Page, Slot unused
	pinned       bool  // touched by the active transaction
	dirty        bool  // has uncommitted local updates

	// Payload belongs to the driver (the live client hangs the page or
	// object bytes here); the cache never looks at it and drops it with
	// the entry.
	Payload any
}

// CachedPage is the client-side state of one cached page.
type CachedPage struct {
	entry
	unavail    slotSet // objects called back / marked unavailable
	dirtySlots slotSet // uncommitted local updates
	read       slotSet // objects the active transaction has referenced
	words      [3]uint64
}

// CachedObj is the client-side state of one cached object (OS).
type CachedObj struct {
	entry
	read bool // referenced by the active transaction
}

// Unavail reports whether the slot is marked unavailable.
func (cp *CachedPage) Unavail(slot uint16) bool { return cp.unavail.has(slot) }

// Pinned reports whether the active transaction has touched the page.
func (cp *CachedPage) Pinned() bool { return cp.pinned }

// Dirty reports whether the slot holds an uncommitted local update.
func (cp *CachedPage) Dirty(slot uint16) bool { return cp.dirtySlots.has(slot) }

// DirtySlots appends the slots with uncommitted updates to dst, ascending.
func (cp *CachedPage) DirtySlots(dst []uint16) []uint16 { return cp.dirtySlots.appendTo(dst) }

// slotSet is a set of a page's object slots, one word per 64 slots. It
// grows on demand, so the cache needs no page geometry.
type slotSet []uint64

func (b slotSet) has(s uint16) bool {
	w := int(s >> 6)
	return w < len(b) && b[w]&(1<<(s&63)) != 0
}

func (b *slotSet) add(s uint16) {
	w := int(s >> 6)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (s & 63)
}

func (b slotSet) remove(s uint16) {
	if w := int(s >> 6); w < len(b) {
		b[w] &^= 1 << (s & 63)
	}
}

func (b slotSet) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b slotSet) appendTo(dst []uint16) []uint16 {
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint16(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// NewClientCache creates a cache. objMode selects the OS object cache.
func NewClientCache(objMode bool, capacity int) *ClientCache {
	if capacity <= 0 {
		panic("core: cache capacity must be positive")
	}
	c := &ClientCache{ObjMode: objMode, Capacity: capacity}
	if objMode {
		c.objs = make(map[ObjID]*CachedObj)
	}
	return c
}

// ---- Page mode ----

// HasPage reports whether page p is resident.
func (c *ClientCache) HasPage(p PageID) bool { return c.Page(p) != nil }

// Page returns the cached page state, or nil.
func (c *ClientCache) Page(p PageID) *CachedPage {
	if cp := c.lastPage; cp != nil && cp.id.Page == p {
		return cp
	}
	if uint(p) >= uint(len(c.pages)) {
		return nil
	}
	cp := c.pages[p]
	if cp != nil {
		c.lastPage = cp
	}
	return cp
}

// Readable reports whether object o can be read locally: its page is
// resident and the object is not marked unavailable.
func (c *ClientCache) Readable(o ObjID) bool {
	cp := c.Page(o.Page)
	return cp != nil && !cp.unavail.has(o.Slot)
}

// InstallPage installs (or refreshes) page p with the server's current
// unavailable-slot list. If a copy with uncommitted updates is already
// resident, the local dirty objects are preserved (a copy merge); the
// return value is the number of dirty objects merged, for CopyMergeInst
// costing. Installing may evict the LRU unpinned page.
func (c *ClientCache) InstallPage(p PageID, unavail []uint16) (merged int) {
	cp := c.Page(p)
	if cp == nil {
		c.pages = growFor(c.pages, p) // first: an invalid page panics before an eviction
		c.evictFor(1)
		cp = &CachedPage{}
		cp.id.Page = p
		// One inline word each: pages of up to 64 objects never allocate
		// a bitset; larger ones grow off the inline storage on first use.
		cp.unavail, cp.dirtySlots, cp.read = cp.words[0:1:1], cp.words[1:2:2], cp.words[2:3:3]
		c.pages[p] = cp
		c.pushFront(&cp.entry)
	} else {
		c.moveToFront(&cp.entry)
		merged = cp.dirtySlots.count()
		// The incoming copy reflects the server's current lock state;
		// its unavailable set replaces ours entirely (committed writers
		// have released; new writers appear in the new list).
		clear(cp.unavail)
	}
	for _, s := range unavail {
		if cp.dirtySlots.has(s) {
			panic(fmt.Sprintf("core: server marked our own dirty slot %d.%d unavailable", p, s))
		}
		cp.unavail.add(s)
	}
	return merged
}

// TouchPage bumps page p in the LRU and pins it for the active txn.
func (c *ClientCache) TouchPage(p PageID) *CachedPage {
	cp := c.Page(p)
	if cp == nil {
		panic(fmt.Sprintf("core: touch of non-resident page %d", p))
	}
	c.moveToFront(&cp.entry)
	c.pinPage(cp)
	return cp
}

func (c *ClientCache) pinPage(cp *CachedPage) {
	if !cp.pinned {
		cp.pinned = true
		c.pinnedPages = append(c.pinnedPages, cp)
	}
}

// MarkUnavailable marks object o unavailable (object-level callback).
func (c *ClientCache) MarkUnavailable(o ObjID) {
	cp := c.Page(o.Page)
	if cp == nil {
		return // already evicted: nothing to do
	}
	if cp.dirtySlots.has(o.Slot) {
		panic(fmt.Sprintf("core: callback for our own dirty object %v", o))
	}
	cp.unavail.add(o.Slot)
}

// MarkDirty records an uncommitted local update to object o.
func (c *ClientCache) MarkDirty(o ObjID) {
	cp := c.Page(o.Page)
	if cp == nil {
		panic(fmt.Sprintf("core: dirty mark on non-resident page %d", o.Page))
	}
	c.pinPage(cp)
	cp.unavail.remove(o.Slot)
	cp.dirtySlots.add(o.Slot)
	if !cp.dirty {
		cp.dirty = true
		c.dirtyPages = append(c.dirtyPages, cp)
	}
}

// PurgePage removes page p (callback purge or abort). Pending drop notice
// is NOT queued: the server learns via the ack/abort message itself.
func (c *ClientCache) PurgePage(p PageID) {
	cp := c.Page(p)
	if cp == nil {
		return
	}
	// Protocol purges only ever hit pages the transaction has not touched;
	// a direct caller purging a pinned page pays for the list search.
	if cp.pinned {
		c.pinnedPages = without(c.pinnedPages, cp)
	}
	if cp.dirty {
		c.dirtyPages = without(c.dirtyPages, cp)
	}
	c.dropPage(cp)
}

func (c *ClientCache) dropPage(cp *CachedPage) {
	c.unlink(&cp.entry)
	c.pages[cp.id.Page] = nil
	if c.lastPage == cp {
		c.lastPage = nil
	}
	if c.OnDrop != nil {
		c.OnDrop(cp.Payload, cp.pinned)
	}
}

// DirtyPages returns the resident pages with uncommitted updates
// (ascending), for building commit/abort messages.
func (c *ClientCache) DirtyPages() []PageID {
	if len(c.dirtyPages) == 0 {
		return nil
	}
	out := make([]PageID, len(c.dirtyPages))
	for i, cp := range c.dirtyPages {
		out[i] = cp.id.Page
	}
	sortPages(out)
	return out
}

// DirtyObjCount returns the number of dirty objects on page p.
func (c *ClientCache) DirtyObjCount(p PageID) int {
	cp := c.Page(p)
	if cp == nil {
		return 0
	}
	return cp.dirtySlots.count()
}

// CleanAll ends the transaction's hold on the cache, as after a commit:
// dirty marks are cleared (pages stay cached and readable), read marks
// are cleared, and everything is unpinned.
func (c *ClientCache) CleanAll() {
	for _, co := range c.pinnedObjs {
		co.pinned, co.dirty, co.read = false, false, false
	}
	for _, cp := range c.pinnedPages {
		cp.pinned, cp.dirty = false, false
		clear(cp.dirtySlots)
		clear(cp.read)
	}
	// Empty the lists, keeping their capacity for the next transaction.
	clear(c.pinnedPages)
	clear(c.dirtyPages)
	clear(c.pinnedObjs)
	clear(c.dirtyObjs)
	c.pinnedPages, c.dirtyPages = c.pinnedPages[:0], c.dirtyPages[:0]
	c.pinnedObjs, c.dirtyObjs = c.pinnedObjs[:0], c.dirtyObjs[:0]
}

// PurgeUpdatesForAbort purges all dirty state for an abort: in page mode,
// pages with dirty objects are purged entirely (the paper's
// purge-at-client abort handling); in object mode dirty objects are
// purged. It unpins everything and returns what was purged so the abort
// message can tell the server to deregister the copies.
func (c *ClientCache) PurgeUpdatesForAbort() (pages []PageID, objs []ObjID) {
	pages, objs = c.DirtyPages(), c.DirtyObjs()
	for _, cp := range c.dirtyPages {
		c.dropPage(cp)
	}
	for _, co := range c.dirtyObjs {
		c.dropObj(co)
	}
	c.CleanAll() // the survivors; the departed entries on the lists are garbage
	return pages, objs
}

// ---- Object mode (OS) ----

// HasObj reports whether object o is resident.
func (c *ClientCache) HasObj(o ObjID) bool { return c.Obj(o) != nil }

// Obj returns the cached object state, or nil.
func (c *ClientCache) Obj(o ObjID) *CachedObj {
	if co := c.lastObj; co != nil && co.id == o {
		return co
	}
	co := c.objs[o]
	if co != nil {
		c.lastObj = co
	}
	return co
}

// InstallObj installs object o, evicting if necessary.
func (c *ClientCache) InstallObj(o ObjID) {
	co := c.Obj(o)
	if co == nil {
		c.evictFor(1)
		co = &CachedObj{}
		co.id = o
		c.objs[o] = co
		c.pushFront(&co.entry)
	} else {
		c.moveToFront(&co.entry)
	}
}

// TouchObj bumps and pins object o.
func (c *ClientCache) TouchObj(o ObjID) *CachedObj {
	co := c.Obj(o)
	if co == nil {
		panic(fmt.Sprintf("core: touch of non-resident object %v", o))
	}
	c.moveToFront(&co.entry)
	c.pinObj(co)
	return co
}

func (c *ClientCache) pinObj(co *CachedObj) {
	if !co.pinned {
		co.pinned = true
		c.pinnedObjs = append(c.pinnedObjs, co)
	}
}

// MarkObjDirty records an uncommitted update to object o.
func (c *ClientCache) MarkObjDirty(o ObjID) {
	co := c.Obj(o)
	if co == nil {
		panic(fmt.Sprintf("core: dirty mark on non-resident object %v", o))
	}
	c.pinObj(co)
	if !co.dirty {
		co.dirty = true
		c.dirtyObjs = append(c.dirtyObjs, co)
	}
}

// PurgeObj removes object o.
func (c *ClientCache) PurgeObj(o ObjID) {
	co := c.Obj(o)
	if co == nil {
		return
	}
	if co.pinned {
		c.pinnedObjs = without(c.pinnedObjs, co)
	}
	if co.dirty {
		c.dirtyObjs = without(c.dirtyObjs, co)
	}
	c.dropObj(co)
}

func (c *ClientCache) dropObj(co *CachedObj) {
	c.unlink(&co.entry)
	delete(c.objs, co.id)
	if c.lastObj == co {
		c.lastObj = nil
	}
	if c.OnDrop != nil {
		c.OnDrop(co.Payload, co.pinned)
	}
}

// DirtyObjs returns the resident dirty objects (deterministic order).
func (c *ClientCache) DirtyObjs() []ObjID {
	if len(c.dirtyObjs) == 0 {
		return nil
	}
	out := make([]ObjID, len(c.dirtyObjs))
	for i, co := range c.dirtyObjs {
		out[i] = co.id
	}
	sortObjs(out)
	return out
}

// ---- Shared ----

func (c *ClientCache) pushFront(e *entry) {
	e.newer, e.older = nil, c.mru
	if c.mru != nil {
		c.mru.newer = e
	} else {
		c.lru = e
	}
	c.mru = e
	c.n++
}

func (c *ClientCache) unlink(e *entry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.mru = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.lru = e.newer
	}
	e.newer, e.older = nil, nil
	c.n--
}

func (c *ClientCache) moveToFront(e *entry) {
	if c.mru != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

// evictFor makes room for n new entries by evicting LRU unpinned, clean
// entries. If everything is pinned the cache is allowed to exceed
// capacity (transaction footprints are assumed to fit, as in the paper).
func (c *ClientCache) evictFor(n int) {
	for c.n+n > c.Capacity {
		// A touch moves its entry to the front, so the pinned entries
		// cluster there and the walk from the tail is short.
		victim := c.lru
		for victim != nil && (victim.pinned || victim.dirty) {
			victim = victim.newer
		}
		if victim == nil {
			return // all pinned: overflow rather than break the txn
		}
		if c.ObjMode {
			c.droppedObjs = append(c.droppedObjs, victim.id)
			c.dropObj(c.objs[victim.id])
		} else {
			c.droppedPages = append(c.droppedPages, victim.id.Page)
			c.dropPage(c.pages[victim.id.Page])
		}
		c.Evictions++
	}
}

// TakeDropped returns and clears the pending eviction notices.
func (c *ClientCache) TakeDropped() (pages []PageID, objs []ObjID) {
	pages, objs = c.droppedPages, c.droppedObjs
	c.droppedPages, c.droppedObjs = nil, nil
	return pages, objs
}

// Len returns the number of resident entries.
func (c *ClientCache) Len() int { return c.n }

// ResidentPages returns all resident page ids (ascending); diagnostics.
func (c *ClientCache) ResidentPages() []PageID {
	var out []PageID
	for p, cp := range c.pages {
		if cp != nil {
			out = append(out, PageID(p))
		}
	}
	return out
}

// ResidentObjs returns all resident object ids (deterministic order).
func (c *ClientCache) ResidentObjs() []ObjID {
	var out []ObjID
	for o := range c.objs {
		out = append(out, o)
	}
	sortObjs(out)
	return out
}

// without removes the first occurrence of v from s, keeping order.
func without[T comparable](s []T, v T) []T {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}
