package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheInstallReadableUnavailable(t *testing.T) {
	c := NewClientCache(false, 4)
	c.InstallPage(1, []uint16{3, 5})
	if !c.HasPage(1) {
		t.Fatal("page missing")
	}
	if !c.Readable(ObjID{Page: 1, Slot: 0}) {
		t.Fatal("slot 0 should be readable")
	}
	if c.Readable(ObjID{Page: 1, Slot: 3}) || c.Readable(ObjID{Page: 1, Slot: 5}) {
		t.Fatal("unavailable slots readable")
	}
	if c.Readable(ObjID{Page: 2, Slot: 0}) {
		t.Fatal("non-resident page readable")
	}
}

func TestCacheRefreshReplacesUnavailable(t *testing.T) {
	c := NewClientCache(false, 4)
	c.InstallPage(1, []uint16{3})
	// Re-fetch: the writer of slot 3 committed, a new writer holds slot 7.
	c.InstallPage(1, []uint16{7})
	if !c.Readable(ObjID{Page: 1, Slot: 3}) {
		t.Fatal("slot 3 should be readable after refresh")
	}
	if c.Readable(ObjID{Page: 1, Slot: 7}) {
		t.Fatal("slot 7 should be unavailable")
	}
}

func TestCacheMergePreservesDirty(t *testing.T) {
	c := NewClientCache(false, 4)
	c.InstallPage(1, nil)
	c.MarkDirty(ObjID{Page: 1, Slot: 2})
	c.MarkDirty(ObjID{Page: 1, Slot: 4})
	merged := c.InstallPage(1, []uint16{9})
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	if c.DirtyObjCount(1) != 2 {
		t.Fatal("dirty slots lost in merge")
	}
	if c.Readable(ObjID{Page: 1, Slot: 9}) {
		t.Fatal("slot 9 should be unavailable")
	}
}

func TestCacheMergeOwnDirtyMarkedUnavailablePanics(t *testing.T) {
	c := NewClientCache(false, 4)
	c.InstallPage(1, nil)
	c.MarkDirty(ObjID{Page: 1, Slot: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.InstallPage(1, []uint16{2})
}

func TestCacheLRUEvictionAndNotices(t *testing.T) {
	c := NewClientCache(false, 3)
	c.InstallPage(1, nil)
	c.InstallPage(2, nil)
	c.InstallPage(3, nil)
	c.InstallPage(4, nil) // evicts page 1 (LRU)
	if c.HasPage(1) {
		t.Fatal("page 1 should be evicted")
	}
	pages, objs := c.TakeDropped()
	if len(pages) != 1 || pages[0] != 1 || objs != nil {
		t.Fatalf("dropped = %v/%v", pages, objs)
	}
	if p, o := c.TakeDropped(); p != nil || o != nil {
		t.Fatal("TakeDropped not cleared")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
}

func TestCacheLRUOrderRespectsTouch(t *testing.T) {
	c := NewClientCache(false, 3)
	c.InstallPage(1, nil)
	c.InstallPage(2, nil)
	c.InstallPage(3, nil)
	c.TouchPage(1)
	c.CleanAll() // unpin
	c.InstallPage(4, nil)
	if c.HasPage(1) == false {
		t.Fatal("recently touched page evicted")
	}
	if c.HasPage(2) {
		t.Fatal("page 2 should have been the LRU victim")
	}
}

func TestCachePinnedAndDirtyNeverEvicted(t *testing.T) {
	c := NewClientCache(false, 2)
	c.InstallPage(1, nil)
	c.MarkDirty(ObjID{Page: 1, Slot: 0}) // dirty + pinned
	c.InstallPage(2, nil)
	c.TouchPage(2) // pinned
	c.InstallPage(3, nil)
	// Everything pinned: cache overflows rather than evicting.
	if !c.HasPage(1) || !c.HasPage(2) || !c.HasPage(3) {
		t.Fatal("pinned/dirty page evicted")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	// After unpinning, the next install evicts down to capacity.
	c.CleanAll()
	c.InstallPage(4, nil)
	if c.Len() > 2 {
		t.Fatalf("len = %d after unpinned install, want <= 2", c.Len())
	}
}

func TestCacheAbortPurgesDirtyPages(t *testing.T) {
	c := NewClientCache(false, 8)
	c.InstallPage(1, nil)
	c.InstallPage(2, nil)
	c.InstallPage(3, nil)
	c.MarkDirty(ObjID{Page: 1, Slot: 0})
	c.MarkDirty(ObjID{Page: 3, Slot: 5})
	pages, objs := c.PurgeUpdatesForAbort()
	if len(pages) != 2 || pages[0] != 1 || pages[1] != 3 || objs != nil {
		t.Fatalf("purged = %v/%v", pages, objs)
	}
	if c.HasPage(1) || c.HasPage(3) {
		t.Fatal("dirty pages survived abort")
	}
	if !c.HasPage(2) {
		t.Fatal("clean page purged on abort")
	}
}

func TestCacheCommitCleansDirty(t *testing.T) {
	c := NewClientCache(false, 8)
	c.InstallPage(1, nil)
	c.MarkDirty(ObjID{Page: 1, Slot: 0})
	if d := c.DirtyPages(); len(d) != 1 {
		t.Fatalf("dirty pages = %v", d)
	}
	c.CleanAll()
	if d := c.DirtyPages(); d != nil {
		t.Fatalf("dirty pages after commit = %v", d)
	}
	if !c.HasPage(1) {
		t.Fatal("page lost at commit")
	}
}

func TestCacheObjectMode(t *testing.T) {
	c := NewClientCache(true, 3)
	o1 := ObjID{Page: 1, Slot: 0}
	o2 := ObjID{Page: 1, Slot: 1}
	o3 := ObjID{Page: 2, Slot: 0}
	o4 := ObjID{Page: 2, Slot: 1}
	c.InstallObj(o1)
	c.InstallObj(o2)
	c.InstallObj(o3)
	c.InstallObj(o4) // evicts o1
	if c.HasObj(o1) {
		t.Fatal("o1 should be evicted")
	}
	pages, objs := c.TakeDropped()
	if pages != nil || len(objs) != 1 || objs[0] != o1 {
		t.Fatalf("dropped = %v/%v", pages, objs)
	}
	c.MarkObjDirty(o3)
	if d := c.DirtyObjs(); len(d) != 1 || d[0] != o3 {
		t.Fatalf("dirty objs = %v", d)
	}
	_, purged := c.PurgeUpdatesForAbort()
	if len(purged) != 1 || purged[0] != o3 {
		t.Fatalf("purged objs = %v", purged)
	}
	if c.HasObj(o3) {
		t.Fatal("dirty obj survived abort")
	}
}

func TestCachePurgeIsIdempotent(t *testing.T) {
	c := NewClientCache(false, 4)
	c.InstallPage(1, nil)
	c.PurgePage(1)
	c.PurgePage(1)
	c.MarkUnavailable(ObjID{Page: 1, Slot: 0}) // non-resident: no-op
	if c.Len() != 0 {
		t.Fatal("cache not empty")
	}
}

// Property: after any sequence of installs/touches/purges, the LRU list
// and the page map agree, size never exceeds capacity unless pinned, and
// unavailable implies resident.
func TestCacheConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewClientCache(false, 5)
		for _, op := range ops {
			p := PageID(op % 8)
			switch (op / 8) % 5 {
			case 0:
				c.InstallPage(p, nil)
			case 1:
				if c.HasPage(p) {
					c.TouchPage(p)
				}
			case 2:
				if c.HasPage(p) && c.DirtyObjCount(p) == 0 {
					// Only mark slots on non-dirty pages to keep this
					// simple sequence valid.
					c.MarkUnavailable(ObjID{Page: p, Slot: uint16(op % 20)})
				}
			case 3:
				c.PurgePage(p)
			case 4:
				c.CleanAll()
			}
			// Invariants.
			if len(c.ResidentPages()) != c.Len() {
				return false
			}
			for _, rp := range c.ResidentPages() {
				if c.Page(rp) == nil {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
