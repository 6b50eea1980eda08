package core

import "fmt"

// ClientState is the client DBMS protocol state machine: the cache plus
// the active transaction's local lock state and deferred callback
// obligations. It is pure logic — the simulated and live drivers both
// drive it and perform the actual waiting/transport around it.
type ClientState struct {
	ID    ClientID
	Proto Protocol
	Cache *ClientCache

	// Active transaction state (emptied between transactions). What the
	// transaction has read, written and touched lives on the cache entries
	// themselves (read marks, dirty marks, the pin); only the write
	// permissions are sets of their own, because a grant can be held on a
	// page the cache does not hold — it arrives before the refetch of a
	// stale copy does. They are grant-sized and reused across Begins.
	Txn   TxnID
	pageX map[PageID]bool
	objX  map[ObjID]bool

	// committing is set once the commit request has been built/sent and
	// cleared when the transaction ends. In this window the server may
	// already have processed the commit (releasing locks) and started
	// callback rounds against our still-registered copies; exposed for
	// drivers/diagnostics.
	committing bool

	// pendingWrite is the object of a write grant whose RecordWrite has
	// not happened yet (e.g. the driver is re-fetching a stale page before
	// applying the update). A de-escalation arriving in that window must
	// preserve the intent as an object lock.
	pendingWrite    ObjID
	hasPendingWrite bool

	// pending holds callback requests that could not be answered with a
	// final ack because the active transaction is using the item; they are
	// resolved when the transaction ends.
	pending []Msg
}

// NewClientState creates the protocol state for one client.
func NewClientState(id ClientID, proto Protocol, cacheCapacity int) *ClientState {
	return &ClientState{
		ID:    id,
		Proto: proto,
		Cache: NewClientCache(proto == OS, cacheCapacity),
		pageX: make(map[PageID]bool),
		objX:  make(map[ObjID]bool),
	}
}

// Begin starts a transaction with the given id.
func (cs *ClientState) Begin(t TxnID) {
	if cs.Txn != NoTxn {
		panic("core: Begin with transaction already active")
	}
	cs.Txn = t
}

// Active reports whether a transaction is in progress.
func (cs *ClientState) Active() bool { return cs.Txn != NoTxn }

// ---- References ----

// NeedForRead returns nil if object o is locally readable, else the
// request message to send to the server.
func (cs *ClientState) NeedForRead(o ObjID) *Msg {
	if cs.Proto == OS {
		if cs.Cache.HasObj(o) {
			return nil
		}
		return &Msg{Kind: MReadReq, From: cs.ID, Txn: cs.Txn, Obj: o, Page: o.Page}
	}
	if cs.Cache.Readable(o) {
		return nil
	}
	return &Msg{Kind: MReadReq, From: cs.ID, Txn: cs.Txn, Obj: o, Page: o.Page}
}

// RecordRead registers a completed read of o in the transaction's local
// state (local read lock + LRU touch + pin).
func (cs *ClientState) RecordRead(o ObjID) {
	if cs.Txn == NoTxn {
		panic("core: RecordRead with no transaction")
	}
	if cs.Proto == OS {
		cs.Cache.TouchObj(o).read = true
	} else {
		cs.Cache.TouchPage(o.Page).read.add(o.Slot)
	}
}

// NeedForWrite returns nil if the transaction already has write permission
// covering o, else the write request to send.
func (cs *ClientState) NeedForWrite(o ObjID) *Msg {
	switch cs.Proto {
	case PS:
		if cs.pageX[o.Page] {
			return nil
		}
		return &Msg{Kind: MWriteReq, From: cs.ID, Txn: cs.Txn, Obj: o, Page: o.Page,
			WantData: !cs.Cache.HasPage(o.Page)}
	case OS:
		if cs.objX[o] {
			return nil
		}
		return &Msg{Kind: MWriteReq, From: cs.ID, Txn: cs.Txn, Obj: o, Page: o.Page,
			WantData: !cs.Cache.HasObj(o)}
	case PSOO, PSOA, PSWT:
		if cs.objX[o] {
			return nil
		}
		return &Msg{Kind: MWriteReq, From: cs.ID, Txn: cs.Txn, Obj: o, Page: o.Page,
			WantData: !cs.Cache.Readable(o)}
	case PSAA:
		if cs.pageX[o.Page] || cs.objX[o] {
			return nil
		}
		return &Msg{Kind: MWriteReq, From: cs.ID, Txn: cs.Txn, Obj: o, Page: o.Page,
			WantData: !cs.Cache.Readable(o)}
	}
	panic("core: unknown protocol")
}

// StartWrite declares the intent to update o before permission checks and
// any driver yields (server round trips, stale-page refetches). If a
// de-escalation request arrives mid-update — in particular during the
// refetch of a stale object already covered by our page lock — the intent
// converts to an object lock rather than being silently dropped. Cleared
// by RecordWrite.
func (cs *ClientState) StartWrite(o ObjID) {
	if cs.Txn == NoTxn {
		panic("core: StartWrite with no transaction")
	}
	cs.pendingWrite = o
	cs.hasPendingWrite = true
}

// RecordWrite registers a completed update of o (write permission must
// already be held).
func (cs *ClientState) RecordWrite(o ObjID) {
	if cs.Txn == NoTxn {
		panic("core: RecordWrite with no transaction")
	}
	if cs.hasPendingWrite && cs.pendingWrite == o {
		cs.hasPendingWrite = false
	}
	if cs.Proto == OS {
		cs.Cache.TouchObj(o).read = true
		cs.Cache.MarkObjDirty(o)
	} else {
		cs.Cache.TouchPage(o.Page).read.add(o.Slot)
		cs.Cache.MarkDirty(o)
	}
}

// OnReply applies a server reply (data and/or grant) to local state and
// returns the number of objects merged (for CopyMergeInst costing).
func (cs *ClientState) OnReply(m *Msg) (merged int) {
	switch m.Kind {
	case MPageData:
		merged = cs.Cache.InstallPage(m.Page, m.Unavail)
		cs.applyGrant(m)
	case MObjData:
		cs.Cache.InstallObj(m.Obj)
		cs.applyGrant(m)
	case MGrant:
		// A data-less grant is only legal if we really still cache the
		// item; the server verified this against its copy table.
		if cs.Proto == OS {
			if !cs.Cache.HasObj(m.Obj) {
				panic(fmt.Sprintf("core: data-less grant for missing object %v", m.Obj))
			}
		} else if m.Grant == GrantPage {
			if !cs.Cache.HasPage(m.Page) {
				panic(fmt.Sprintf("core: data-less page grant for missing page %d", m.Page))
			}
		} else if !cs.Cache.Readable(m.Obj) {
			// Under page-granularity copy tracking (PS-OA, PS-AA) the
			// server cannot see that our copy of the object was marked
			// unavailable by an adaptive callback after we sent the write
			// request, so a data-less grant can arrive for a stale object.
			// The caller must detect this (NeedsRefetch) and fetch the
			// page before writing. Object-granularity protocols track
			// exactly this, so there it is a protocol violation.
			if cs.Proto == PSOO || cs.Proto == PSWT {
				panic(fmt.Sprintf("core: data-less grant for unavailable object %v", m.Obj))
			}
		}
		cs.applyGrant(m)
	default:
		panic(fmt.Sprintf("core: OnReply with %v", m.Kind))
	}
	return merged
}

func (cs *ClientState) applyGrant(m *Msg) {
	if m.Grant != GrantNone {
		cs.pendingWrite = m.Obj
		cs.hasPendingWrite = true
	}
	switch m.Grant {
	case GrantNone:
	case GrantPage:
		if !cs.Proto.PageLocks() {
			panic("core: page grant under object-lock protocol")
		}
		cs.pageX[m.Page] = true
		// A page grant absorbs object locks we held on the page.
		for o := range cs.objX {
			if o.Page == m.Page {
				delete(cs.objX, o)
			}
		}
	case GrantObject:
		cs.objX[m.Obj] = true
	}
}

// The transaction's write set is the cache's dirty marks: RecordWrite is
// the only thing that sets them, and commit and abort clear both at once.

// Wrote reports whether the active transaction has updated o.
func (cs *ClientState) Wrote(o ObjID) bool {
	if cs.Proto == OS {
		co := cs.Cache.Obj(o)
		return co != nil && co.dirty
	}
	cp := cs.Cache.Page(o.Page)
	return cp != nil && cp.dirtySlots.has(o.Slot)
}

// read reports whether the active transaction has referenced o (an update
// is a reference too).
func (cs *ClientState) read(o ObjID) bool {
	if cs.Proto == OS {
		co := cs.Cache.Obj(o)
		return co != nil && co.read
	}
	cp := cs.Cache.Page(o.Page)
	return cp != nil && cp.read.has(o.Slot)
}

// touched reports whether the active transaction has referenced any
// object of page p (page modes).
func (cs *ClientState) touched(p PageID) bool {
	cp := cs.Cache.Page(p)
	return cp != nil && cp.pinned
}

// WriteSetObjs returns the active transaction's updated objects
// (deterministic order).
func (cs *ClientState) WriteSetObjs() []ObjID {
	if cs.Proto == OS {
		return cs.Cache.DirtyObjs()
	}
	var out []ObjID
	for _, p := range cs.Cache.DirtyPages() {
		out = append(out, cs.WroteOn(p)...)
	}
	return out
}

// NeedsRefetch reports whether object o, though write permission is held,
// is locally stale (marked unavailable) and must be re-fetched before the
// update can proceed. This arises only under page-granularity copy
// tracking; see OnReply.
func (cs *ClientState) NeedsRefetch(o ObjID) bool {
	return cs.Proto != OS && !cs.Cache.Readable(o)
}

// HoldsPageX reports local page-level write permission (tests/invariants).
func (cs *ClientState) HoldsPageX(p PageID) bool { return cs.pageX[p] }

// HoldsObjX reports local object-level write permission.
func (cs *ClientState) HoldsObjX(o ObjID) bool { return cs.objX[o] }

// WroteOn returns the objects of page p updated so far by the active
// transaction, ascending (page modes).
func (cs *ClientState) WroteOn(p PageID) []ObjID {
	cp := cs.Cache.Page(p)
	if cp == nil || !cp.dirty {
		return nil
	}
	var scratch [64]uint16 // on the stack; wider pages spill to the heap
	var out []ObjID
	for _, s := range cp.dirtySlots.appendTo(scratch[:0]) {
		out = append(out, ObjID{Page: p, Slot: s})
	}
	return out
}

// ---- Callbacks ----

// HandleCallback processes an incoming callback request. It returns the
// immediate reply (a final ack, or a busy notification) and whether the
// final ack is deferred until the end of the active transaction.
func (cs *ClientState) HandleCallback(m *Msg) (reply *Msg, deferred bool) {
	ack := func(purged bool) *Msg {
		return &Msg{Kind: MCallbackAck, From: cs.ID, Req: m.Req, Page: m.Page, Obj: m.Obj,
			CB: m.CB, Purged: purged, Epoch: m.Epoch}
	}
	busy := func() *Msg {
		cs.pending = append(cs.pending, *m)
		return &Msg{Kind: MCallbackAck, From: cs.ID, Req: m.Req, Page: m.Page, Obj: m.Obj,
			CB: m.CB, Busy: true, BusyTxn: cs.Txn, Epoch: m.Epoch}
	}
	// A callback can legitimately target an item this transaction has
	// write-locked: the round was started (or even cancelled by a deadlock
	// abort) before our own grant, and its callback was still in flight.
	// Such callbacks — like any in-use conflict — get a busy reply and a
	// truthful deferred ack at transaction end.
	switch m.CB {
	case CBPage:
		if cs.Active() && cs.touched(m.Page) {
			return busy(), true
		}
		cs.Cache.PurgePage(m.Page)
		return ack(true), false
	case CBObject:
		if cs.Active() && cs.read(m.Obj) {
			return busy(), true
		}
		if cs.Proto == OS {
			cs.Cache.PurgeObj(m.Obj)
		} else {
			cs.Cache.MarkUnavailable(m.Obj)
		}
		return ack(true), false
	case CBAdaptive:
		if cs.Active() && cs.touched(m.Page) {
			if cs.read(m.Obj) {
				return busy(), true
			}
			cs.Cache.MarkUnavailable(m.Obj)
			return ack(false), false // kept the page
		}
		cs.Cache.PurgePage(m.Page)
		return ack(true), false
	}
	panic("core: unknown callback kind")
}

// HandleDeescReq processes a PS-AA de-escalation request: the client
// reports which objects of the page its transaction has updated and
// downgrades its local page permission to those objects.
func (cs *ClientState) HandleDeescReq(m *Msg) *Msg {
	reply := &Msg{Kind: MDeescReply, From: cs.ID, Txn: cs.Txn, Page: m.Page}
	if !cs.Active() || !cs.pageX[m.Page] {
		return reply // no longer held; server will see the release instead
	}
	objs := cs.WroteOn(m.Page)
	// A write grant may be awaiting its RecordWrite (the driver is
	// re-fetching a stale page); preserve that intent as an object lock.
	if cs.hasPendingWrite && cs.pendingWrite.Page == m.Page {
		found := false
		for _, o := range objs {
			if o == cs.pendingWrite {
				found = true
				break
			}
		}
		if !found {
			objs = append(objs, cs.pendingWrite)
		}
	}
	if len(objs) == 0 {
		panic("core: page X held with no local updates at de-escalation")
	}
	delete(cs.pageX, m.Page)
	for _, o := range objs {
		cs.objX[o] = true
	}
	reply.DeescObjs = objs
	return reply
}

// ---- Transaction end ----

// BuildCommit constructs the commit message carrying the updated pages
// (page modes) or objects (OS).
func (cs *ClientState) BuildCommit() *Msg {
	if cs.Txn == NoTxn {
		panic("core: BuildCommit with no transaction")
	}
	cs.committing = true
	m := &Msg{Kind: MCommitReq, From: cs.ID, Txn: cs.Txn}
	if cs.Proto == OS {
		m.Objs = cs.Cache.DirtyObjs()
	} else {
		m.Pages = cs.Cache.DirtyPages()
	}
	return m
}

// OnCommitAck finalizes a committed transaction: dirty state becomes
// clean, local locks are dropped, and deferred callback obligations are
// discharged. It returns the final callback acks to send.
func (cs *ClientState) OnCommitAck() []Msg {
	if cs.Txn == NoTxn {
		panic("core: OnCommitAck with no transaction")
	}
	cs.Cache.CleanAll()
	cs.endTxn()
	return cs.resolvePending()
}

// Abort aborts the active transaction (deadlock victim): uncommitted
// updates are purged from the cache, deferred callbacks discharged, and
// the abort notification for the server built. The returned messages are
// the abort request followed by any final callback acks.
func (cs *ClientState) Abort() []Msg {
	if cs.Txn == NoTxn {
		panic("core: Abort with no transaction")
	}
	m := Msg{Kind: MAbortReq, From: cs.ID, Txn: cs.Txn}
	m.PurgedPages, m.PurgedObjs = cs.Cache.PurgeUpdatesForAbort()
	cs.endTxn()
	return append([]Msg{m}, cs.resolvePending()...)
}

func (cs *ClientState) endTxn() {
	cs.Txn = NoTxn
	cs.committing = false
	cs.hasPendingWrite = false
	clear(cs.pageX)
	clear(cs.objX)
}

// resolvePending discharges deferred callbacks now that no transaction is
// active, returning the final acks.
func (cs *ClientState) resolvePending() []Msg {
	if len(cs.pending) == 0 {
		return nil
	}
	acks := make([]Msg, 0, len(cs.pending))
	for i := range cs.pending {
		m := &cs.pending[i]
		purged := true
		switch m.CB {
		case CBPage, CBAdaptive:
			cs.Cache.PurgePage(m.Page)
		case CBObject:
			if cs.Proto == OS {
				cs.Cache.PurgeObj(m.Obj)
			} else {
				cs.Cache.MarkUnavailable(m.Obj)
			}
		}
		acks = append(acks, Msg{Kind: MCallbackAck, From: cs.ID, Req: m.Req, Page: m.Page,
			Obj: m.Obj, CB: m.CB, Purged: purged, Epoch: m.Epoch})
	}
	cs.pending = nil
	return acks
}

// PendingCallbacks returns the number of deferred callback obligations.
func (cs *ClientState) PendingCallbacks() int { return len(cs.pending) }
