package core

import "fmt"

// LockTab is the server's write-lock table. Under Callback Locking the
// server tracks only exclusive (write) locks: a cached copy at a client
// *is* read permission, and the callback mechanism revokes it. Locks exist
// at page granularity (PS, PS-AA) and object granularity (all but PS).
//
// LockTab is pure bookkeeping: conflict *policy* (what blocks, what
// de-escalates) lives in ServerEngine. All mutating operations panic on
// protocol-invariant violations (granting over a conflicting lock), which
// turns driver bugs into immediate failures instead of corrupt histories.
type LockTab struct {
	pages map[PageID]*PageLocks
	txns  map[TxnID]*TxnLocks

	// Ops counts grant/release lock-table operations for CPU costing
	// (LockInst is charged per lock/unlock pair, i.e. once per grant).
	Ops int64
}

// PageLocks is the lock state of one page.
type PageLocks struct {
	PageX TxnID            // page-level exclusive holder, NoTxn if none
	ObjX  map[uint16]TxnID // object-level exclusive holders by slot
}

// TxnLocks indexes the locks held by one transaction.
type TxnLocks struct {
	Client ClientID
	PageX  map[PageID]bool
	ObjX   map[ObjID]bool
}

// NewLockTab returns an empty lock table.
func NewLockTab() *LockTab {
	return &LockTab{pages: make(map[PageID]*PageLocks), txns: make(map[TxnID]*TxnLocks)}
}

func (lt *LockTab) page(p PageID) *PageLocks {
	pl := lt.pages[p]
	if pl == nil {
		pl = &PageLocks{PageX: NoTxn, ObjX: make(map[uint16]TxnID)}
		lt.pages[p] = pl
	}
	return pl
}

func (lt *LockTab) txn(t TxnID, c ClientID) *TxnLocks {
	tl := lt.txns[t]
	if tl == nil {
		tl = &TxnLocks{Client: c, PageX: make(map[PageID]bool), ObjX: make(map[ObjID]bool)}
		lt.txns[t] = tl
	}
	return tl
}

// PageXHolder returns the page-level X holder of p, or NoTxn.
func (lt *LockTab) PageXHolder(p PageID) TxnID {
	if pl := lt.pages[p]; pl != nil {
		return pl.PageX
	}
	return NoTxn
}

// ObjXHolder returns the object-level X holder of o, or NoTxn.
func (lt *LockTab) ObjXHolder(o ObjID) TxnID {
	if pl := lt.pages[o.Page]; pl != nil {
		return pl.ObjX[o.Slot]
	}
	return NoTxn
}

// ObjXCount returns how many object-level locks exist on page p held by
// transactions other than except.
func (lt *LockTab) ObjXCount(p PageID, except TxnID) int {
	pl := lt.pages[p]
	if pl == nil {
		return 0
	}
	n := 0
	for _, t := range pl.ObjX {
		if t != except {
			n++
		}
	}
	return n
}

// ObjXSlots returns the slots of page p object-locked by transactions
// other than except, in ascending slot order (deterministic).
func (lt *LockTab) ObjXSlots(p PageID, except TxnID) []uint16 {
	pl := lt.pages[p]
	if pl == nil || len(pl.ObjX) == 0 {
		return nil
	}
	var slots []uint16
	for s, t := range pl.ObjX {
		if t != except {
			slots = append(slots, s)
		}
	}
	sortSlots(slots)
	return slots
}

func sortSlots(s []uint16) {
	// Insertion sort: slot lists are tiny (bounded by objects per page).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// GrantPageX grants a page-level X lock to txn t at client c.
func (lt *LockTab) GrantPageX(t TxnID, c ClientID, p PageID) {
	pl := lt.page(p)
	if pl.PageX != NoTxn && pl.PageX != t {
		panic(fmt.Sprintf("core: page X conflict on %d: held by %d, granting to %d", p, pl.PageX, t))
	}
	for s, holder := range pl.ObjX {
		if holder != t {
			panic(fmt.Sprintf("core: page X over foreign obj lock %d.%d (held by %d)", p, s, holder))
		}
	}
	// Escalation: absorb the txn's own object locks on this page.
	for s := range pl.ObjX {
		delete(pl.ObjX, s)
		delete(lt.txn(t, c).ObjX, ObjID{Page: p, Slot: s})
		lt.Ops++
	}
	pl.PageX = t
	lt.txn(t, c).PageX[p] = true
	lt.Ops++
}

// GrantObjX grants an object-level X lock to txn t at client c.
func (lt *LockTab) GrantObjX(t TxnID, c ClientID, o ObjID) {
	pl := lt.page(o.Page)
	if pl.PageX != NoTxn && pl.PageX != t {
		panic(fmt.Sprintf("core: obj X on %v conflicts with page X held by %d", o, pl.PageX))
	}
	if holder, ok := pl.ObjX[o.Slot]; ok && holder != t {
		panic(fmt.Sprintf("core: obj X conflict on %v: held by %d, granting to %d", o, holder, t))
	}
	pl.ObjX[o.Slot] = t
	lt.txn(t, c).ObjX[o] = true
	lt.Ops++
}

// Deescalate converts txn t's page-level X on p into object-level X locks
// on the given objects (the ones t has actually updated). It panics if t
// does not hold the page lock.
func (lt *LockTab) Deescalate(t TxnID, p PageID, objs []ObjID) {
	pl := lt.pages[p]
	if pl == nil || pl.PageX != t {
		panic(fmt.Sprintf("core: de-escalate of page %d not X-held by %d", p, t))
	}
	tl := lt.txns[t]
	pl.PageX = NoTxn
	delete(tl.PageX, p)
	lt.Ops++
	for _, o := range objs {
		if o.Page != p {
			panic("core: de-escalation object on wrong page")
		}
		pl.ObjX[o.Slot] = t
		tl.ObjX[o] = true
		lt.Ops++
	}
}

// HoldsPageX reports whether txn t holds the page-level X lock on p.
func (lt *LockTab) HoldsPageX(t TxnID, p PageID) bool {
	tl := lt.txns[t]
	return tl != nil && tl.PageX[p]
}

// HoldsObjX reports whether txn t holds an object-level X lock on o.
func (lt *LockTab) HoldsObjX(t TxnID, o ObjID) bool {
	tl := lt.txns[t]
	return tl != nil && tl.ObjX[o]
}

// TxnPages returns all pages on which txn t holds any lock, in ascending
// order (deterministic).
func (lt *LockTab) TxnPages(t TxnID) []PageID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	seen := make(map[PageID]bool)
	var pages []PageID
	for p := range tl.PageX {
		if !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	for o := range tl.ObjX {
		if !seen[o.Page] {
			seen[o.Page] = true
			pages = append(pages, o.Page)
		}
	}
	sortPages(pages)
	return pages
}

func sortPages(p []PageID) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j] < p[j-1]; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// ObjXObjs returns the objects on which txn t holds object-level X locks,
// grouped in no particular page order but with deterministic total order.
func (lt *LockTab) ObjXObjs(t TxnID) []ObjID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	objs := make([]ObjID, 0, len(tl.ObjX))
	for o := range tl.ObjX {
		objs = append(objs, o)
	}
	sortObjs(objs)
	return objs
}

// sortObjs sorts by (page, slot); the inputs are transaction-sized.
func sortObjs(objs []ObjID) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objLess(objs[j], objs[j-1]); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}

func objLess(a, b ObjID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}

// ObjXCountOnPage returns how many object locks txn t holds on page p.
func (lt *LockTab) ObjXCountOnPage(t TxnID, p PageID) int {
	tl := lt.txns[t]
	if tl == nil {
		return 0
	}
	n := 0
	for o := range tl.ObjX {
		if o.Page == p {
			n++
		}
	}
	return n
}

// ReleaseAll releases every lock held by txn t and returns the affected
// pages (ascending) so the caller can retry queued requests.
func (lt *LockTab) ReleaseAll(t TxnID) []PageID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	pages := lt.TxnPages(t)
	for p := range tl.PageX {
		pl := lt.pages[p]
		if pl.PageX != t {
			panic("core: lock index inconsistency (page)")
		}
		pl.PageX = NoTxn
		lt.maybeFree(p, pl)
	}
	for o := range tl.ObjX {
		pl := lt.pages[o.Page]
		if pl.ObjX[o.Slot] != t {
			panic("core: lock index inconsistency (object)")
		}
		delete(pl.ObjX, o.Slot)
		lt.maybeFree(o.Page, pl)
	}
	delete(lt.txns, t)
	return pages
}

func (lt *LockTab) maybeFree(p PageID, pl *PageLocks) {
	if pl.PageX == NoTxn && len(pl.ObjX) == 0 {
		delete(lt.pages, p)
	}
}

// LockCount returns the number of locks txn t currently holds.
func (lt *LockTab) LockCount(t TxnID) int {
	tl := lt.txns[t]
	if tl == nil {
		return 0
	}
	return len(tl.PageX) + len(tl.ObjX)
}

// Empty reports whether no locks are held at all (quiescence checks).
func (lt *LockTab) Empty() bool { return len(lt.pages) == 0 }

// TakeOps returns the op count accumulated since the last call and resets
// it.
func (lt *LockTab) TakeOps() int64 {
	n := lt.Ops
	lt.Ops = 0
	return n
}
