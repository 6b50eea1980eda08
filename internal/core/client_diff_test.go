package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ---- The reference client ----
//
// naive is the client bookkeeping written the obvious way: a map per set
// (read set, write set, touched pages, per-page unavailable and dirty
// slots), a slice for the LRU order, and whole-cache scans wherever a
// question spans the cache. ClientCache + ClientState answer the same
// questions from slot bitsets, intrusive lists and the pinned/dirty lists;
// the differential test below holds the two to identical observable
// behaviour, step by step.

type naivePage struct {
	unavail, dirty map[uint16]bool
	pinned         bool
}

type naiveObj struct{ dirty, pinned bool }

type naive struct {
	id       ClientID
	proto    Protocol
	capacity int

	pages map[PageID]*naivePage
	objs  map[ObjID]*naiveObj
	lru   []ObjID // most recent first; page mode keys are {Page, 0}

	droppedPages []PageID
	droppedObjs  []ObjID
	evictions    int64

	txn             TxnID
	readSet         map[ObjID]bool
	writeSet        map[ObjID]bool
	pagesTouched    map[PageID]bool
	pageX           map[PageID]bool
	objX            map[ObjID]bool
	pendingWrite    ObjID
	hasPendingWrite bool
	pending         []Msg
}

func newNaive(id ClientID, proto Protocol, capacity int) *naive {
	return &naive{id: id, proto: proto, capacity: capacity,
		pages: map[PageID]*naivePage{}, objs: map[ObjID]*naiveObj{}}
}

func (n *naive) os() bool { return n.proto == OS }

func pageKey(p PageID) ObjID { return ObjID{Page: p} }

func (n *naive) lruRemove(k ObjID) {
	for i, e := range n.lru {
		if e == k {
			n.lru = append(n.lru[:i:i], n.lru[i+1:]...)
			return
		}
	}
}

func (n *naive) lruFront(k ObjID) {
	n.lruRemove(k)
	n.lru = append([]ObjID{k}, n.lru...)
}

func (n *naive) evictable(k ObjID) bool {
	if n.os() {
		return !n.objs[k].pinned && !n.objs[k].dirty
	}
	np := n.pages[k.Page]
	return !np.pinned && len(np.dirty) == 0
}

func (n *naive) evictForOne() {
	for len(n.lru)+1 > n.capacity {
		victim := -1
		for i := len(n.lru) - 1; i >= 0; i-- {
			if n.evictable(n.lru[i]) {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		k := n.lru[victim]
		if n.os() {
			delete(n.objs, k)
			n.droppedObjs = append(n.droppedObjs, k)
		} else {
			delete(n.pages, k.Page)
			n.droppedPages = append(n.droppedPages, k.Page)
		}
		n.lruRemove(k)
		n.evictions++
	}
}

func (n *naive) readable(o ObjID) bool {
	np := n.pages[o.Page]
	return np != nil && !np.unavail[o.Slot]
}

func (n *naive) installPage(p PageID, unavail []uint16) (merged int) {
	np := n.pages[p]
	if np == nil {
		n.evictForOne()
		np = &naivePage{unavail: map[uint16]bool{}, dirty: map[uint16]bool{}}
		n.pages[p] = np
	} else {
		merged = len(np.dirty)
		np.unavail = map[uint16]bool{}
	}
	n.lruFront(pageKey(p))
	for _, s := range unavail {
		np.unavail[s] = true
	}
	return merged
}

func (n *naive) installObj(o ObjID) {
	if n.objs[o] == nil {
		n.evictForOne()
		n.objs[o] = &naiveObj{}
	}
	n.lruFront(o)
}

func (n *naive) purgePage(p PageID) {
	if n.pages[p] != nil {
		delete(n.pages, p)
		n.lruRemove(pageKey(p))
	}
}

func (n *naive) purgeObj(o ObjID) {
	if n.objs[o] != nil {
		delete(n.objs, o)
		n.lruRemove(o)
	}
}

func (n *naive) markUnavailable(o ObjID) {
	if np := n.pages[o.Page]; np != nil {
		np.unavail[o.Slot] = true
	}
}

func (n *naive) dirtyPages() []PageID {
	var out []PageID
	for p, np := range n.pages {
		if len(np.dirty) > 0 {
			out = append(out, p)
		}
	}
	sortPages(out)
	return out
}

func (n *naive) dirtyObjs() []ObjID {
	var out []ObjID
	for o, no := range n.objs {
		if no.dirty {
			out = append(out, o)
		}
	}
	sortObjs(out)
	return out
}

func (n *naive) begin(t TxnID) {
	n.txn = t
	n.readSet, n.writeSet = map[ObjID]bool{}, map[ObjID]bool{}
	n.pagesTouched = map[PageID]bool{}
	n.pageX, n.objX = map[PageID]bool{}, map[ObjID]bool{}
}

func (n *naive) needForRead(o ObjID) *Msg {
	if n.os() && n.objs[o] != nil || !n.os() && n.readable(o) {
		return nil
	}
	return &Msg{Kind: MReadReq, From: n.id, Txn: n.txn, Obj: o, Page: o.Page}
}

func (n *naive) touch(o ObjID) {
	if n.os() {
		n.lruFront(o)
		n.objs[o].pinned = true
		return
	}
	n.pagesTouched[o.Page] = true
	n.lruFront(pageKey(o.Page))
	n.pages[o.Page].pinned = true
}

func (n *naive) recordRead(o ObjID) {
	n.readSet[o] = true
	n.touch(o)
}

func (n *naive) needForWrite(o ObjID) *Msg {
	var held, have bool
	switch n.proto {
	case PS:
		held, have = n.pageX[o.Page], n.pages[o.Page] != nil
	case OS:
		held, have = n.objX[o], n.objs[o] != nil
	case PSAA:
		held, have = n.pageX[o.Page] || n.objX[o], n.readable(o)
	default:
		held, have = n.objX[o], n.readable(o)
	}
	if held {
		return nil
	}
	return &Msg{Kind: MWriteReq, From: n.id, Txn: n.txn, Obj: o, Page: o.Page, WantData: !have}
}

func (n *naive) startWrite(o ObjID) { n.pendingWrite, n.hasPendingWrite = o, true }

func (n *naive) recordWrite(o ObjID) {
	if n.hasPendingWrite && n.pendingWrite == o {
		n.hasPendingWrite = false
	}
	n.readSet[o], n.writeSet[o] = true, true
	n.touch(o)
	if n.os() {
		n.objs[o].dirty = true
		return
	}
	np := n.pages[o.Page]
	delete(np.unavail, o.Slot)
	np.dirty[o.Slot] = true
}

func (n *naive) onReply(m *Msg) (merged int) {
	switch m.Kind {
	case MPageData:
		merged = n.installPage(m.Page, m.Unavail)
	case MObjData:
		n.installObj(m.Obj)
	}
	if m.Grant != GrantNone {
		n.pendingWrite, n.hasPendingWrite = m.Obj, true
	}
	switch m.Grant {
	case GrantPage:
		n.pageX[m.Page] = true
		for o := range n.objX {
			if o.Page == m.Page {
				delete(n.objX, o)
			}
		}
	case GrantObject:
		n.objX[m.Obj] = true
	}
	return merged
}

func (n *naive) needsRefetch(o ObjID) bool { return !n.os() && !n.readable(o) }

func (n *naive) wroteOn(p PageID) []ObjID {
	var out []ObjID
	for o := range n.writeSet {
		if o.Page == p {
			out = append(out, o)
		}
	}
	sortObjs(out)
	return out
}

func (n *naive) writeSetObjs() []ObjID {
	var out []ObjID
	for o := range n.writeSet {
		out = append(out, o)
	}
	sortObjs(out)
	return out
}

func (n *naive) handleCallback(m *Msg) (*Msg, bool) {
	active := n.txn != NoTxn
	inUse := false
	switch m.CB {
	case CBPage:
		inUse = active && n.pagesTouched[m.Page]
	case CBObject:
		inUse = active && (n.readSet[m.Obj] || n.writeSet[m.Obj])
	case CBAdaptive:
		inUse = active && n.pagesTouched[m.Page] && (n.readSet[m.Obj] || n.writeSet[m.Obj])
	}
	reply := &Msg{Kind: MCallbackAck, From: n.id, Req: m.Req, Page: m.Page, Obj: m.Obj,
		CB: m.CB, Epoch: m.Epoch}
	if inUse {
		n.pending = append(n.pending, *m)
		reply.Busy, reply.BusyTxn = true, n.txn
		return reply, true
	}
	reply.Purged = true
	switch {
	case m.CB == CBObject && n.os():
		n.purgeObj(m.Obj)
	case m.CB == CBObject:
		n.markUnavailable(m.Obj)
	case m.CB == CBAdaptive && active && n.pagesTouched[m.Page]:
		n.markUnavailable(m.Obj)
		reply.Purged = false // kept the page
	default:
		n.purgePage(m.Page)
	}
	return reply, false
}

func (n *naive) handleDeesc(m *Msg) *Msg {
	reply := &Msg{Kind: MDeescReply, From: n.id, Txn: n.txn, Page: m.Page}
	if n.txn == NoTxn || !n.pageX[m.Page] {
		return reply
	}
	objs := n.wroteOn(m.Page)
	if n.hasPendingWrite && n.pendingWrite.Page == m.Page && !n.writeSet[n.pendingWrite] {
		objs = append(objs, n.pendingWrite)
	}
	delete(n.pageX, m.Page)
	for _, o := range objs {
		n.objX[o] = true
	}
	reply.DeescObjs = objs
	return reply
}

func (n *naive) buildCommit() *Msg {
	m := &Msg{Kind: MCommitReq, From: n.id, Txn: n.txn}
	if n.os() {
		m.Objs = n.dirtyObjs()
	} else {
		m.Pages = n.dirtyPages()
	}
	return m
}

func (n *naive) endTxn() []Msg {
	for _, np := range n.pages {
		np.pinned = false
	}
	for _, no := range n.objs {
		no.pinned = false
	}
	n.txn, n.hasPendingWrite = NoTxn, false
	n.readSet, n.writeSet, n.pagesTouched, n.pageX, n.objX = nil, nil, nil, nil, nil
	var acks []Msg
	for _, m := range n.pending {
		switch {
		case m.CB == CBObject && n.os():
			n.purgeObj(m.Obj)
		case m.CB == CBObject:
			n.markUnavailable(m.Obj)
		default:
			n.purgePage(m.Page)
		}
		acks = append(acks, Msg{Kind: MCallbackAck, From: n.id, Req: m.Req, Page: m.Page,
			Obj: m.Obj, CB: m.CB, Purged: true, Epoch: m.Epoch})
	}
	n.pending = nil
	return acks
}

func (n *naive) onCommitAck() []Msg {
	for _, np := range n.pages {
		np.dirty = map[uint16]bool{}
	}
	for _, no := range n.objs {
		no.dirty = false
	}
	return n.endTxn()
}

func (n *naive) abort() []Msg {
	m := Msg{Kind: MAbortReq, From: n.id, Txn: n.txn}
	m.PurgedPages, m.PurgedObjs = n.dirtyPages(), n.dirtyObjs()
	for _, p := range m.PurgedPages {
		n.purgePage(p)
	}
	for _, o := range m.PurgedObjs {
		n.purgeObj(o)
	}
	return append([]Msg{m}, n.endTxn()...)
}

func (n *naive) takeDropped() ([]PageID, []ObjID) {
	p, o := n.droppedPages, n.droppedObjs
	n.droppedPages, n.droppedObjs = nil, nil
	return p, o
}

// ---- The differential driver ----

type diffRun struct {
	t      *testing.T
	rng    *rand.Rand
	cs     *ClientState
	nv     *naive
	pages  int
	slots  int
	step   int
	req    int64
	nextID TxnID
	last   string // the step being checked, for failure messages
}

func (d *diffRun) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%v step %d (%s): %s", d.cs.Proto, d.step, d.last, fmt.Sprintf(format, args...))
}

// same fails unless the two implementations produced the same value.
func (d *diffRun) same(what string, got, want any) {
	d.t.Helper()
	if !reflect.DeepEqual(got, want) {
		d.fail("%s: got %+v, reference %+v", what, got, want)
	}
}

func (d *diffRun) obj() ObjID {
	return ObjID{Page: PageID(d.rng.Intn(d.pages)), Slot: uint16(d.rng.Intn(d.slots))}
}

// unavailFor invents the unavailable list of a page shipment: any slots
// but the one asked for and the ones this client has dirtied (the server
// holds this client's locks on those).
func (d *diffRun) unavailFor(o ObjID) []uint16 {
	var out []uint16
	for k := d.rng.Intn(3); k > 0; k-- {
		s := uint16(d.rng.Intn(d.slots))
		if np := d.nv.pages[o.Page]; s != o.Slot && (np == nil || !np.dirty[s]) {
			out = append(out, s)
		}
	}
	return out
}

func (d *diffRun) reply(m *Msg) {
	d.same("merged", d.cs.OnReply(m), d.nv.onReply(m))
}

func (d *diffRun) dataFor(o ObjID, grant GrantLevel) *Msg {
	if d.cs.Proto == OS {
		return &Msg{Kind: MObjData, Page: o.Page, Obj: o, Grant: grant}
	}
	return &Msg{Kind: MPageData, Page: o.Page, Obj: o, Grant: grant, Unavail: d.unavailFor(o)}
}

func (d *diffRun) read(o ObjID) {
	d.last = fmt.Sprintf("read %v", o)
	m := d.cs.NeedForRead(o)
	d.same("NeedForRead", m, d.nv.needForRead(o))
	if m != nil {
		d.reply(d.dataFor(o, GrantNone))
	}
	d.cs.RecordRead(o)
	d.nv.recordRead(o)
}

func (d *diffRun) write(o ObjID) {
	d.last = fmt.Sprintf("write %v", o)
	d.cs.StartWrite(o)
	d.nv.startWrite(o)
	m := d.cs.NeedForWrite(o)
	d.same("NeedForWrite", m, d.nv.needForWrite(o))
	if m != nil {
		grant := GrantObject
		if d.cs.Proto == PS || d.cs.Proto == PSAA && d.rng.Intn(2) == 0 {
			grant = GrantPage
		}
		// Under page-granularity copy tracking an adaptive callback can
		// overtake the grant and leave the object stale on a kept page.
		if (d.cs.Proto == PSOA || d.cs.Proto == PSAA) && d.nv.pagesTouched[o.Page] && d.rng.Intn(4) == 0 {
			d.callback(CBAdaptive, o)
		}
		if m.WantData {
			d.reply(d.dataFor(o, grant))
		} else {
			d.reply(&Msg{Kind: MGrant, Page: o.Page, Obj: o, Grant: grant})
		}
		// The grant is in; its RecordWrite is not. A de-escalation or a
		// callback landing here must see the intent. (Not under OS, whose
		// drivers apply a grant and record its write in one step: there is
		// no refetch to wait for.)
		switch r := d.rng.Intn(6); {
		case r == 0:
			d.deesc(o.Page)
		case r == 1 && d.cs.Proto != OS:
			d.callback(d.cbKind(), o)
		}
	}
	refetch := d.cs.NeedsRefetch(o)
	d.same("NeedsRefetch", refetch, d.nv.needsRefetch(o))
	if refetch {
		d.last = fmt.Sprintf("refetch %v", o)
		rm := d.cs.NeedForRead(o)
		d.same("refetch NeedForRead", rm, d.nv.needForRead(o))
		d.reply(d.dataFor(o, GrantNone))
		if d.rng.Intn(4) == 0 {
			d.deesc(o.Page)
		}
	}
	d.cs.RecordWrite(o)
	d.nv.recordWrite(o)
}

func (d *diffRun) cbKind() CallbackKind {
	if d.cs.Proto == OS {
		return CBObject
	}
	return []CallbackKind{CBPage, CBObject, CBAdaptive}[d.rng.Intn(3)]
}

func (d *diffRun) callback(kind CallbackKind, o ObjID) {
	d.last = fmt.Sprintf("callback %v %v", kind, o)
	d.req++
	m := &Msg{Kind: MCallback, CB: kind, Page: o.Page, Obj: o, Req: d.req, Epoch: int64(d.rng.Intn(4))}
	got, gotDeferred := d.cs.HandleCallback(m)
	want, wantDeferred := d.nv.handleCallback(m)
	d.same("callback reply", got, want)
	d.same("callback deferred", gotDeferred, wantDeferred)
}

func (d *diffRun) deesc(p PageID) {
	d.last = fmt.Sprintf("deesc %d", p)
	m := &Msg{Kind: MDeescReq, Page: p}
	d.same("deesc reply", d.cs.HandleDeescReq(m), d.nv.handleDeesc(m))
}

func (d *diffRun) one() {
	d.step++
	if !d.cs.Active() {
		if d.rng.Intn(4) == 0 {
			d.callback(d.cbKind(), d.obj())
			return
		}
		d.nextID++
		d.last = "begin"
		d.cs.Begin(d.nextID)
		d.nv.begin(d.nextID)
		return
	}
	switch r := d.rng.Intn(100); {
	case r < 40:
		d.read(d.obj())
	case r < 65:
		d.write(d.obj())
	case r < 80:
		d.callback(d.cbKind(), d.obj())
	case r < 85:
		d.deesc(PageID(d.rng.Intn(d.pages)))
	case r < 88:
		d.last = "take dropped"
		gp, gobjs := d.cs.Cache.TakeDropped()
		wp, wobjs := d.nv.takeDropped()
		d.same("dropped pages", gp, wp)
		d.same("dropped objs", gobjs, wobjs)
	case r < 96:
		d.last = "commit"
		if len(d.nv.dirtyPages())+len(d.nv.dirtyObjs()) > 0 {
			d.same("BuildCommit", d.cs.BuildCommit(), d.nv.buildCommit())
			if d.rng.Intn(3) == 0 { // the commit is in flight; callbacks are not held up
				d.callback(d.cbKind(), d.obj())
				d.last = "commit"
			}
		}
		d.same("commit acks", d.cs.OnCommitAck(), d.nv.onCommitAck())
	default:
		d.last = "abort"
		d.same("abort messages", d.cs.Abort(), d.nv.abort())
	}
}

// flag compares one per-page or per-object answer.
func (d *diffRun) flag(what string, id any, got, want bool) {
	if got != want {
		d.t.Helper()
		d.fail("%s(%v): got %v, reference %v", what, id, got, want)
	}
}

// observe compares everything a driver can ask of the client.
func (d *diffRun) observe() {
	cs, nv, c := d.cs, d.nv, d.cs.Cache
	d.same("Active", cs.Active(), nv.txn != NoTxn)
	d.same("Len", c.Len(), len(nv.lru))
	d.same("Evictions", c.Evictions, nv.evictions)
	d.same("PendingCallbacks", cs.PendingCallbacks(), len(nv.pending))
	d.same("DirtyPages", c.DirtyPages(), nv.dirtyPages())
	d.same("DirtyObjs", c.DirtyObjs(), nv.dirtyObjs())
	d.same("WriteSetObjs", cs.WriteSetObjs(), nv.writeSetObjs())
	var resPages []PageID
	var resObjs []ObjID
	for p := PageID(0); int(p) < d.pages; p++ {
		np, cp := nv.pages[p], c.Page(p)
		d.flag("HasPage", p, c.HasPage(p), np != nil)
		d.flag("HoldsPageX", p, cs.HoldsPageX(p), nv.pageX[p])
		if np != nil {
			resPages = append(resPages, p)
			d.same("DirtyObjCount", c.DirtyObjCount(p), len(np.dirty))
			d.same("WroteOn", cs.WroteOn(p), nv.wroteOn(p))
		}
		var dirtySlots []uint16
		for s := uint16(0); int(s) < d.slots; s++ {
			o := ObjID{Page: p, Slot: s}
			if nv.objs[o] != nil {
				resObjs = append(resObjs, o)
			}
			d.flag("HasObj", o, c.HasObj(o), nv.objs[o] != nil)
			d.flag("Wrote", o, cs.Wrote(o), nv.writeSet[o])
			d.flag("HoldsObjX", o, cs.HoldsObjX(o), nv.objX[o])
			if !nv.os() {
				d.flag("Readable", o, c.Readable(o), nv.readable(o))
			}
			if np != nil {
				d.flag("Dirty", o, cp.Dirty(s), np.dirty[s])
				d.flag("Unavail", o, cp.Unavail(s), np.unavail[s])
				if np.dirty[s] {
					dirtySlots = append(dirtySlots, s)
				}
			}
		}
		if np != nil {
			d.same("DirtySlots", cp.DirtySlots(nil), dirtySlots)
		}
	}
	d.same("ResidentPages", c.ResidentPages(), resPages)
	d.same("ResidentObjs", c.ResidentObjs(), resObjs)
}

// invariants checks what the bitset/list representation relies on: the
// LRU list, the map and the lists agree, and transaction marks (read and
// dirty bits) exist only on resident, pinned entries — which is why
// commit and abort may visit the pinned list alone.
func (d *diffRun) invariants() {
	c := d.cs.Cache
	n := 0
	for e := c.mru; e != nil; e = e.older {
		n++
		if e.older == nil && c.lru != e || e.older != nil && e.older.newer != e {
			d.fail("LRU links broken at %v", e.id)
		}
	}
	residentPages := 0 // the page table is dense: nil is a non-resident page
	for _, cp := range c.pages {
		residentPages += btoi(cp != nil)
	}
	if n != c.n || n != residentPages+len(c.objs) {
		d.fail("LRU has %d entries, n=%d, tables hold %d", n, c.n, residentPages+len(c.objs))
	}
	if c.lastPage != nil && c.pages[c.lastPage.id.Page] != c.lastPage ||
		c.lastObj != nil && c.objs[c.lastObj.id] != c.lastObj {
		d.fail("lookup memo points at a departed entry")
	}
	pinned, dirty := 0, 0
	for p, cp := range c.pages {
		if cp == nil {
			continue
		}
		marks := cp.read.count() + cp.dirtySlots.count()
		switch {
		case cp.id.Page != PageID(p):
			d.fail("page %d filed under %d", cp.id.Page, p)
		case cp.dirty != (cp.dirtySlots.count() > 0):
			d.fail("page %d: dirty flag %v with %d dirty slots", p, cp.dirty, cp.dirtySlots.count())
		case !cp.pinned && marks > 0:
			d.fail("page %d: %d transaction marks on an unpinned page", p, marks)
		case !d.cs.Active() && cp.pinned:
			d.fail("page %d pinned with no transaction", p)
		}
		pinned += btoi(cp.pinned)
		dirty += btoi(cp.dirty)
	}
	for o, co := range c.objs {
		switch {
		case co.id != o:
			d.fail("object %v filed under %v", co.id, o)
		case !co.pinned && (co.read || co.dirty):
			d.fail("object %v: transaction marks on an unpinned object", o)
		case !d.cs.Active() && co.pinned:
			d.fail("object %v pinned with no transaction", o)
		}
		pinned += btoi(co.pinned)
		dirty += btoi(co.dirty)
	}
	if len(c.pinnedPages)+len(c.pinnedObjs) != pinned || len(c.dirtyPages)+len(c.dirtyObjs) != dirty {
		d.fail("lists hold %d pinned / %d dirty, entries say %d / %d",
			len(c.pinnedPages)+len(c.pinnedObjs), len(c.dirtyPages)+len(c.dirtyObjs), pinned, dirty)
	}
	for _, cp := range c.pinnedPages {
		if c.pages[cp.id.Page] != cp || !cp.pinned {
			d.fail("pinned list holds departed or unpinned page %d", cp.id.Page)
		}
	}
	for _, cp := range c.dirtyPages {
		if c.pages[cp.id.Page] != cp || !cp.dirty {
			d.fail("dirty list holds departed or clean page %d", cp.id.Page)
		}
	}
	for _, co := range c.pinnedObjs {
		if c.objs[co.id] != co || !co.pinned {
			d.fail("pinned list holds departed or unpinned object %v", co.id)
		}
	}
	for _, co := range c.dirtyObjs {
		if c.objs[co.id] != co || !co.dirty {
			d.fail("dirty list holds departed or clean object %v", co.id)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestClientMatchesNaiveModel drives install / read / write / callbacks of
// all three kinds / de-escalation / eviction / commit / abort through
// ClientState and through the reference, for every protocol, on a cache
// small enough to evict and overflow, and once with pages wider than one
// bitset word.
func TestClientMatchesNaiveModel(t *testing.T) {
	shapes := []struct{ pages, slots, capPages int }{
		{pages: 10, slots: 6, capPages: 4},
		{pages: 4, slots: 70, capPages: 2},
	}
	for _, proto := range AllProtocols {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 4; seed++ {
				capacity := sh.capPages
				if proto == OS {
					capacity *= sh.slots / 2
				}
				d := &diffRun{t: t, rng: rand.New(rand.NewSource(seed)),
					cs:    NewClientState(3, proto, capacity),
					nv:    newNaive(3, proto, capacity),
					pages: sh.pages, slots: sh.slots}
				for i := 0; i < 1500; i++ {
					d.one()
					d.observe()
					d.invariants()
				}
			}
		}
	}
}
