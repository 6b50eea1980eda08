package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
)

// ServerEngine is the server DBMS protocol state machine for all five
// granularity alternatives. It is a pure event->messages transducer:
// Handle consumes one incoming client message and returns the messages the
// server sends in response (data replies, grants, callbacks, de-escalation
// requests, abort notifications). Blocked requests are queued internally
// and their replies are emitted from the later Handle call that unblocks
// them.
//
// Time, transport, buffering, and disks belong to the driver; CPU-relevant
// work is accounted in Locks.Ops, Copies.Ops, and TakeMergeObjs.
type ServerEngine struct {
	Proto  Protocol
	Layout *Layout
	Locks  *LockTab
	Copies *CopyTab

	txns   map[TxnID]*stxn
	rounds map[int64]*round
	// unconfirmed holds the callbacks of cancelled rounds that the client
	// had not answered at all (DESIGN.md §8 race 7), by client and round,
	// with the item each revokes. The callback may still purge the
	// client's copy when it lands, after any grant sent meanwhile, so
	// needData does not trust that copy until the answer arrives. Nil
	// until such a round is cancelled.
	unconfirmed map[callbackKey]ObjID
	// pages is the per-page protocol state, dense by page and grown on
	// demand (DESIGN.md §18).
	pages     []pageState
	freeTxns  []*stxn // forgotten transaction records, for reuse
	nextRound int64

	out []Msg

	mergeObjs int64 // CopyMergeInst accumulator (commit installs)

	// system is the client whose transactions are infrastructure, not
	// workload — the live server's reclustering planner (NoClient: none).
	// Its commits and aborts are excluded from Stats (user-facing
	// throughput must not be inflated by the system's own housekeeping),
	// and it is the victim of any deadlock it is on; locking, callbacks,
	// and traces are unaffected.
	system ClientID

	Stats ServerCounters

	// Trace, when set, observes protocol events (transaction lifecycle,
	// blocking, grants, callback rounds) as they happen. The live server
	// uses it to feed its tracer and lock-wait histograms; nil (the
	// simulator's default) costs one predictable branch per event.
	Trace func(kind obs.EventKind, txn TxnID, client ClientID, obj ObjID, extra int64)

	// DebugCheckLog, when set (tests only), observes every deadlock
	// check: start txn, its direct waits, chosen victim (0 if none).
	DebugCheckLog func(start TxnID, waits []TxnID, victim TxnID)
}

// ServerCounters counts protocol-level events of interest. The fields are
// atomics because the engine increments them on its driver's goroutine
// while monitors (live Stats() callers, the admin endpoint, periodic
// summaries) read them concurrently; use Snapshot for a plain-struct
// view.
type ServerCounters struct {
	Deadlocks     atomic.Int64 // cycles resolved (victims chosen)
	Rounds        atomic.Int64 // callback rounds started
	Callbacks     atomic.Int64 // individual callback messages sent
	BusyReplies   atomic.Int64
	Deescalations atomic.Int64 // de-escalation requests issued
	PageGrants    atomic.Int64 // page-level write locks granted
	ObjGrants     atomic.Int64 // object-level write locks granted
	Blocks        atomic.Int64 // requests that blocked at least once
	TokenWaits    atomic.Int64 // PS-WT: writes blocked on the page write token
	ReadReqs      atomic.Int64
	WriteReqs     atomic.Int64
	Commits       atomic.Int64
	Aborts        atomic.Int64
}

// ServerStats is a point-in-time snapshot of ServerCounters.
type ServerStats struct {
	Deadlocks     int64
	Rounds        int64
	Callbacks     int64
	BusyReplies   int64
	Deescalations int64
	PageGrants    int64
	ObjGrants     int64
	Blocks        int64
	TokenWaits    int64
	ReadReqs      int64
	WriteReqs     int64
	Commits       int64
	Aborts        int64
}

// Snapshot reads the counters into a plain struct.
func (c *ServerCounters) Snapshot() ServerStats {
	return ServerStats{
		Deadlocks:     c.Deadlocks.Load(),
		Rounds:        c.Rounds.Load(),
		Callbacks:     c.Callbacks.Load(),
		BusyReplies:   c.BusyReplies.Load(),
		Deescalations: c.Deescalations.Load(),
		PageGrants:    c.PageGrants.Load(),
		ObjGrants:     c.ObjGrants.Load(),
		Blocks:        c.Blocks.Load(),
		TokenWaits:    c.TokenWaits.Load(),
		ReadReqs:      c.ReadReqs.Load(),
		WriteReqs:     c.WriteReqs.Load(),
		Commits:       c.Commits.Load(),
		Aborts:        c.Aborts.Load(),
	}
}

// trace emits a protocol event to the Trace hook, if any.
func (se *ServerEngine) trace(kind obs.EventKind, txn TxnID, client ClientID, obj ObjID, extra int64) {
	if se.Trace != nil {
		se.Trace(kind, txn, client, obj, extra)
	}
}

// pageState is the engine's state for one page. rounds and queue fill
// only on conflicts, so unlike the lock table's entries they are not kept
// warm: an emptied list is set to nil.
type pageState struct {
	rounds []*round      // open callback rounds on the page
	queue  []*blockedReq // blocked requests, FIFO
	deesc  bool          // PS-AA: a de-escalation request is outstanding
	token  *stxn         // PS-WT: the page's write-token holder
}

// page returns page p's state for reading: the zero state if p has
// none.
func (se *ServerEngine) page(p PageID) pageState {
	if uint(p) < uint(len(se.pages)) {
		return se.pages[p]
	}
	return pageState{}
}

// pageAt returns page p's state for writing, growing the table to hold
// it. The pointer is valid until the next pageAt.
func (se *ServerEngine) pageAt(p PageID) *pageState {
	se.pages = growFor(se.pages, p)
	return &se.pages[p]
}

// stxn is the server's view of an active transaction.
type stxn struct {
	id       TxnID
	client   ClientID
	blocked  *blockedReq // outstanding queued request, if any
	round    *round      // outstanding callback round, if any
	aborting bool        // chosen as deadlock victim, abort in flight
	tokens   []PageID    // PS-WT: write tokens held
}

// blockedReq is a queued client request.
type blockedReq struct {
	msg         Msg
	txn         *stxn
	isWrite     bool
	blockedOnce bool
}

// callbackKey names one callback: its recipient and its round.
type callbackKey struct {
	c     ClientID
	round int64
}

// round is one callback round: a write request whose grant awaits acks.
type round struct {
	id      int64
	req     Msg
	txn     *stxn
	page    PageID
	obj     ObjID
	pending map[ClientID]bool  // clients whose final ack is outstanding
	busy    map[ClientID]TxnID // clients that replied busy (still pending)
	anyKept bool               // some client kept its page (adaptive rounds)
}

// NewServerEngine creates the engine for the given protocol and layout.
func NewServerEngine(proto Protocol, layout *Layout) *ServerEngine {
	return &ServerEngine{
		Proto:  proto,
		Layout: layout,
		Locks:  NewLockTab(),
		Copies: NewCopyTab(proto.ObjectCopies()),
		txns:   make(map[TxnID]*stxn),
		rounds: make(map[int64]*round),
	}
}

// SetSystemClient makes c the system client: its commits and aborts stop
// counting in Stats, its transactions lose every deadlock they are on, and
// its commits may carry Relocs. The host must call this before the client
// issues requests.
func (se *ServerEngine) SetSystemClient(c ClientID) {
	se.system = c
}

// IsSystem reports whether c is the system client.
func (se *ServerEngine) IsSystem(c ClientID) bool {
	return c != NoClient && c == se.system
}

// Handle processes one incoming client message and returns the outgoing
// server messages. The returned slice is reused across calls; the caller
// must consume it before the next Handle.
func (se *ServerEngine) Handle(m *Msg) []Msg {
	se.out = se.out[:0]
	se.applyDropped(m.From, m.DroppedPages, m.DroppedObjs)
	switch m.Kind {
	case MReadReq:
		se.Stats.ReadReqs.Add(1)
		se.handleRequest(m, false)
	case MWriteReq:
		se.Stats.WriteReqs.Add(1)
		se.handleRequest(m, true)
	case MCommitReq:
		se.handleCommit(m)
	case MAbortReq:
		se.handleAbort(m)
	case MCallbackAck:
		se.handleAck(m)
	case MDeescReply:
		se.handleDeescReply(m)
	default:
		panic(fmt.Sprintf("core: server received %v", m.Kind))
	}
	return se.out
}

// TakeMergeObjs returns and resets the number of objects merged/installed
// at the server since the last call (for CopyMergeInst costing).
func (se *ServerEngine) TakeMergeObjs() int64 {
	n := se.mergeObjs
	se.mergeObjs = 0
	return n
}

// BlockedRequests returns the number of queued requests (diagnostics).
func (se *ServerEngine) BlockedRequests() int {
	n := 0
	for _, ps := range se.pages {
		n += len(ps.queue)
	}
	return n
}

// RoundLive reports whether callback round id is still open (not yet
// completed or cancelled). Hosts use it to decide whether a busy reply
// renews the answering client's callback deadline: a busy ack against a
// cancelled round defers nothing — the client owes no final answer.
func (se *ServerEngine) RoundLive(id int64) bool {
	_, ok := se.rounds[id]
	return ok
}

// Quiesced reports whether the server holds no locks, rounds, queues,
// unanswered callbacks of cancelled rounds, or transactions
// (integration-test invariant at end of run).
func (se *ServerEngine) Quiesced() bool {
	if len(se.txns) != 0 || len(se.rounds) != 0 || len(se.unconfirmed) != 0 || !se.Locks.Empty() {
		return false
	}
	for _, ps := range se.pages {
		if len(ps.queue) != 0 || ps.token != nil {
			return false
		}
	}
	return true
}

func (se *ServerEngine) getTxn(t TxnID, c ClientID) *stxn {
	if t == NoTxn {
		panic("core: request with no transaction id")
	}
	st := se.txns[t]
	if st == nil {
		if n := len(se.freeTxns); n > 0 {
			st = se.freeTxns[n-1]
			se.freeTxns = se.freeTxns[:n-1]
			*st = stxn{id: t, client: c, tokens: st.tokens[:0]}
		} else {
			st = &stxn{id: t, client: c}
		}
		se.txns[t] = st
		se.trace(obs.EvBegin, t, c, ObjID{}, 0)
	}
	return st
}

// Fits and Admit are the one rule for what a remote client may send
// (DESIGN.md §18): the engine takes m only if both hold. A host calls Fits,
// which reads only the layout, before it takes Handle's lock, Admit under
// it, and closes the session of a sender either refuses, before m has any
// effect; Handle's panics assert the rule for trusted callers.
//
// Fits reports whether m is one of the six client-to-server kinds and names
// only pages and objects in the layout, with update images of at most
// objSize bytes, so that no restart fails to apply it.
func (se *ServerEngine) Fits(m *Msg, objSize int) bool {
	page := func(p PageID) bool { return uint(p) < uint(se.Layout.NumPages) }
	obj := func(o ObjID) bool { return page(o.Page) && int(o.Slot) < se.Layout.ObjsPerPage }
	ok := MReadReq <= m.Kind && m.Kind <= MDeescReply && page(m.Page) && obj(m.Obj)
	for _, ps := range [...][]PageID{m.Pages, m.DroppedPages, m.PurgedPages} {
		for _, p := range ps {
			ok = ok && page(p)
		}
	}
	for _, os := range [...][]ObjID{m.Objs, m.DroppedObjs, m.PurgedObjs, m.DeescObjs} {
		for _, o := range os {
			ok = ok && obj(o)
		}
	}
	for o, img := range m.Updates {
		ok = ok && obj(o) && len(img) <= objSize
	}
	return ok
}

// Admit reports whether the engine's state lets it take m, which Fits:
// every live transaction m names is its sender's (one the engine does not
// know, such as an aborted deadlock victim, is no one's), and m comes in
// turn.
func (se *ServerEngine) Admit(m *Msg) bool {
	st := se.txns[m.Txn]
	if st != nil && st.client != m.From {
		return false
	}
	waiting := st != nil && (st.blocked != nil || st.round != nil)
	switch m.Kind {
	case MReadReq, MWriteReq: // in turn, and no write of what it holds
		return m.Txn != NoTxn && !waiting && (m.Kind == MReadReq || !se.locked(m.Txn, m.Obj))
	case MCommitReq: // known, in turn, every write locked, no relocation from a user
		ok := st != nil && !waiting && (len(m.Relocs) == 0 || se.IsSystem(m.From))
		for _, o := range m.Objs {
			ok = ok && se.locked(m.Txn, o)
		}
		for o := range m.Updates {
			ok = ok && se.locked(m.Txn, o)
		}
		return ok
	case MCallbackAck: // the protocol's kind, from a client a live round awaits
		rd, busy := se.rounds[m.Req], se.txns[m.BusyTxn]
		return m.CB == se.Proto.callbackKind() && (rd == nil || rd.pending[m.From]) &&
			(!m.Busy || busy == nil || busy.client == m.From)
	case MDeescReply: // only objects on its page
		return !slices.ContainsFunc(m.DeescObjs, func(o ObjID) bool { return o.Page != m.Page })
	}
	return true
}

// locked reports whether t holds o write-locked, by itself or under a page
// lock: checked at the address the client named, where the locks live.
func (se *ServerEngine) locked(t TxnID, o ObjID) bool {
	return se.Locks.HoldsPageX(t, o.Page) || se.Locks.HoldsObjX(t, o)
}

// forgetTxn drops the record of transaction t, if any, keeping it for
// reuse. getTxn resets a record only when it hands it out again, so a
// caller still holding one it collected earlier in the same step
// (Disconnect) may read its id.
func (se *ServerEngine) forgetTxn(t TxnID) {
	if st := se.txns[t]; st != nil {
		delete(se.txns, t)
		se.freeTxns = append(se.freeTxns, st)
	}
}

// applyDropped applies cache eviction notices from client c: the client
// no longer caches the listed pages/objects, so the copy table forgets
// them.
func (se *ServerEngine) applyDropped(c ClientID, pages []PageID, objs []ObjID) {
	if se.Copies.ObjGranularity() {
		for _, o := range objs {
			se.Copies.UnregisterObj(c, o, NoEpoch)
		}
		// PS-OO evicts whole pages client-side but registers per object.
		for _, p := range pages {
			for s := 0; s < se.Layout.ObjsPerPage; s++ {
				se.Copies.UnregisterObj(c, ObjID{Page: p, Slot: uint16(s)}, NoEpoch)
			}
		}
		return
	}
	for _, p := range pages {
		se.Copies.UnregisterPage(c, p, NoEpoch)
	}
}

// send buffers an outgoing message.
func (se *ServerEngine) send(m Msg) { se.out = append(se.out, m) }

// reply buffers a reply to request m.
func (se *ServerEngine) replyMsg(req *Msg, kind MsgKind, grant GrantLevel, unavail []uint16) {
	se.send(Msg{Kind: kind, To: req.From, Txn: req.Txn, Req: req.Req,
		Page: req.Page, Obj: req.Obj, Grant: grant, Unavail: unavail})
}

// unavailSlots computes the slots of page p that must be marked
// unavailable in a page shipped to txn t's client: objects write-locked by
// other transactions plus objects targeted by open callback rounds.
func (se *ServerEngine) unavailSlots(p PageID, t TxnID) []uint16 {
	slots := se.Locks.ObjXSlots(p, t)
	for _, rd := range se.page(p).rounds {
		if rd.txn.id == t {
			continue
		}
		found := false
		for _, s := range slots {
			if s == rd.obj.Slot {
				found = true
				break
			}
		}
		if !found {
			slots = append(slots, rd.obj.Slot)
		}
	}
	sortSlots(slots)
	return slots
}

// roundOnObj returns an open round targeting object o, or nil.
func (se *ServerEngine) roundOnObj(o ObjID) *round {
	for _, rd := range se.page(o.Page).rounds {
		if rd.obj == o {
			return rd
		}
	}
	return nil
}
