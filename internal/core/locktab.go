package core

import (
	"fmt"
	"slices"
)

// LockTab is the server's write-lock table. Under Callback Locking the
// server tracks only exclusive (write) locks: a cached copy at a client
// *is* read permission, and the callback mechanism revokes it. Locks exist
// at page granularity (PS, PS-AA) and object granularity (all but PS).
//
// LockTab is pure bookkeeping: conflict *policy* (what blocks, what
// de-escalates) lives in ServerEngine. All mutating operations panic on
// protocol-invariant violations (granting over a conflicting lock), which
// turns driver bugs into immediate failures instead of corrupt histories.
//
// The table is dense by page: pages[p] is page p's entry, the slice grows
// to the highest page ever locked and an entry is kept across releases, so
// a warm grant/release cycle neither hashes nor allocates (DESIGN.md §18).
type LockTab struct {
	pages []pageLocks
	txns  map[TxnID]*txnLocks
	free  []*txnLocks // released transactions' lists, kept for reuse
	held  int         // locks held in total; 0 is Empty
	// released is ReleaseAll's result, reused by the next call.
	released []PageID

	// Ops counts grant/release lock-table operations for CPU costing
	// (LockInst is charged per lock/unlock pair, i.e. once per grant).
	Ops int64
}

// pageLocks is the lock state of one page.
type pageLocks struct {
	pageX TxnID      // page-level exclusive holder, NoTxn if none
	objX  []slotLock // object-level exclusive holders, ascending by slot
}

type slotLock struct {
	slot uint16
	txn  TxnID
}

// find returns where slot s is, or would be inserted, in pl.objX.
func (pl *pageLocks) find(s uint16) (int, bool) {
	for i, e := range pl.objX {
		if e.slot >= s {
			return i, e.slot == s
		}
	}
	return len(pl.objX), false
}

// txnLocks lists the locks held by one transaction, in grant order.
type txnLocks struct {
	pageX []PageID
	objX  []ObjID
}

// NewLockTab returns an empty lock table.
func NewLockTab() *LockTab {
	return &LockTab{txns: make(map[TxnID]*txnLocks)}
}

// at returns page p's entry, or nil if p was never locked.
func (lt *LockTab) at(p PageID) *pageLocks {
	if uint(p) < uint(len(lt.pages)) {
		return &lt.pages[p]
	}
	return nil
}

// grow returns page p's entry, growing the table to hold it.
func (lt *LockTab) grow(p PageID) *pageLocks {
	lt.pages = growFor(lt.pages, p)
	return &lt.pages[p]
}

func (lt *LockTab) txn(t TxnID) *txnLocks {
	tl := lt.txns[t]
	if tl == nil {
		if n := len(lt.free); n > 0 {
			tl = lt.free[n-1]
			lt.free = lt.free[:n-1]
		} else {
			tl = new(txnLocks)
		}
		lt.txns[t] = tl
	}
	return tl
}

// PageXHolder returns the page-level X holder of p, or NoTxn.
func (lt *LockTab) PageXHolder(p PageID) TxnID {
	if pl := lt.at(p); pl != nil {
		return pl.pageX
	}
	return NoTxn
}

// ObjXHolder returns the object-level X holder of o, or NoTxn.
func (lt *LockTab) ObjXHolder(o ObjID) TxnID {
	if pl := lt.at(o.Page); pl != nil {
		if i, ok := pl.find(o.Slot); ok {
			return pl.objX[i].txn
		}
	}
	return NoTxn
}

// ObjXCount returns how many object-level locks exist on page p held by
// transactions other than except.
func (lt *LockTab) ObjXCount(p PageID, except TxnID) int {
	pl := lt.at(p)
	if pl == nil {
		return 0
	}
	n := 0
	for _, e := range pl.objX {
		if e.txn != except {
			n++
		}
	}
	return n
}

// ObjXSlots returns the slots of page p object-locked by transactions
// other than except, in ascending slot order (deterministic).
func (lt *LockTab) ObjXSlots(p PageID, except TxnID) []uint16 {
	pl := lt.at(p)
	if pl == nil {
		return nil
	}
	var slots []uint16
	for _, e := range pl.objX {
		if e.txn != except {
			slots = append(slots, e.slot)
		}
	}
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
	pl := lt.grow(p)
	if pl.pageX != NoTxn && pl.pageX != t {
		panic(fmt.Sprintf("core: page X conflict on %d: held by %d, granting to %d", p, pl.pageX, t))
	}
	for _, e := range pl.objX {
		if e.txn != t {
			panic(fmt.Sprintf("core: page X over foreign obj lock %d.%d (held by %d)", p, e.slot, e.txn))
		}
	}
	tl := lt.txn(t)
	// Escalation: absorb the txn's own object locks on this page.
	if n := len(pl.objX); n > 0 {
		tl.objX = slices.DeleteFunc(tl.objX, func(o ObjID) bool { return o.Page == p })
		pl.objX = pl.objX[:0]
		lt.held -= n
		lt.Ops += int64(n)
	}
	if pl.pageX != t {
		pl.pageX = t
		tl.pageX = append(tl.pageX, p)
		lt.held++
	}
	lt.Ops++
}

// GrantObjX grants an object-level X lock to txn t at client c.
func (lt *LockTab) GrantObjX(t TxnID, c ClientID, o ObjID) {
	pl := lt.grow(o.Page)
	if pl.pageX != NoTxn && pl.pageX != t {
		panic(fmt.Sprintf("core: obj X on %v conflicts with page X held by %d", o, pl.pageX))
	}
	tl := lt.txn(t)
	if i, ok := pl.find(o.Slot); ok {
		if pl.objX[i].txn != t {
			panic(fmt.Sprintf("core: obj X conflict on %v: held by %d, granting to %d", o, pl.objX[i].txn, t))
		}
	} else {
		pl.objX = slices.Insert(pl.objX, i, slotLock{slot: o.Slot, txn: t})
		tl.objX = append(tl.objX, o)
		lt.held++
	}
	lt.Ops++
}

// Deescalate converts txn t's page-level X on p into object-level X locks
// on the given objects (the ones t has actually updated). It panics if t
// does not hold the page lock.
func (lt *LockTab) Deescalate(t TxnID, p PageID, objs []ObjID) {
	pl := lt.at(p)
	if t == NoTxn || pl == nil || pl.pageX != t {
		panic(fmt.Sprintf("core: de-escalate of page %d not X-held by %d", p, t))
	}
	tl := lt.txns[t]
	pl.pageX = NoTxn
	tl.pageX = slices.DeleteFunc(tl.pageX, func(x PageID) bool { return x == p })
	lt.held--
	lt.Ops++
	for _, o := range objs {
		if o.Page != p {
			panic("core: de-escalation object on wrong page")
		}
		// Under t's page lock every object lock on p is t's own.
		if i, ok := pl.find(o.Slot); !ok {
			pl.objX = slices.Insert(pl.objX, i, slotLock{slot: o.Slot, txn: t})
			tl.objX = append(tl.objX, o)
			lt.held++
		}
		lt.Ops++
	}
}

// HoldsPageX reports whether txn t holds the page-level X lock on p.
func (lt *LockTab) HoldsPageX(t TxnID, p PageID) bool {
	return t != NoTxn && lt.PageXHolder(p) == t
}

// HoldsObjX reports whether txn t holds an object-level X lock on o.
func (lt *LockTab) HoldsObjX(t TxnID, o ObjID) bool {
	return t != NoTxn && lt.ObjXHolder(o) == t
}

// TxnPages returns all pages on which txn t holds any lock, in ascending
// order (deterministic).
func (lt *LockTab) TxnPages(t TxnID) []PageID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	return tl.pages(nil)
}

// pages returns the distinct pages tl holds locks on, ascending, in buf's
// storage (buf's contents are discarded).
func (tl *txnLocks) pages(buf []PageID) []PageID {
	dst := buf[:0]
	dst = append(dst, tl.pageX...)
	for _, o := range tl.objX {
		dst = append(dst, o.Page)
	}
	sortPages(dst)
	return slices.Compact(dst)
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
	objs := append(make([]ObjID, 0, len(tl.objX)), tl.objX...)
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
	pl := lt.at(p)
	if pl == nil || t == NoTxn {
		return 0
	}
	n := 0
	for _, e := range pl.objX {
		if e.txn == t {
			n++
		}
	}
	return n
}

// ReleaseAll releases every lock held by txn t and returns the affected
// pages (ascending) so the caller can retry queued requests. The returned
// slice is reused by the next ReleaseAll.
func (lt *LockTab) ReleaseAll(t TxnID) []PageID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	lt.released = tl.pages(lt.released)
	for _, p := range tl.pageX {
		pl := &lt.pages[p]
		if pl.pageX != t {
			panic("core: lock index inconsistency (page)")
		}
		pl.pageX = NoTxn
	}
	for _, o := range tl.objX {
		pl := &lt.pages[o.Page]
		i, ok := pl.find(o.Slot)
		if !ok || pl.objX[i].txn != t {
			panic("core: lock index inconsistency (object)")
		}
		pl.objX = slices.Delete(pl.objX, i, i+1)
	}
	lt.held -= len(tl.pageX) + len(tl.objX)
	delete(lt.txns, t)
	tl.pageX, tl.objX = tl.pageX[:0], tl.objX[:0]
	lt.free = append(lt.free, tl)
	return lt.released
}

// LockCount returns the number of locks txn t currently holds.
func (lt *LockTab) LockCount(t TxnID) int {
	tl := lt.txns[t]
	if tl == nil {
		return 0
	}
	return len(tl.pageX) + len(tl.objX)
}

// Empty reports whether no locks are held at all (quiescence checks).
func (lt *LockTab) Empty() bool { return lt.held == 0 }

// TakeOps returns the op count accumulated since the last call and resets
// it.
func (lt *LockTab) TakeOps() int64 {
	n := lt.Ops
	lt.Ops = 0
	return n
}
