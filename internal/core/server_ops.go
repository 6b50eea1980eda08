package core

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// handleRequest processes a read or write request: try it, and queue it if
// it blocks.
func (se *ServerEngine) handleRequest(m *Msg, isWrite bool) {
	t := se.getTxn(m.Txn, m.From)
	if t.blocked != nil || t.round != nil {
		panic(fmt.Sprintf("core: txn %d issued a request while one is outstanding", m.Txn))
	}
	var isW int64
	if isWrite {
		isW = 1
	}
	se.trace(obs.EvLockReq, m.Txn, m.From, m.Obj, isW)
	// r stays on the stack unless the request blocks: only the queue
	// keeps a request beyond this step.
	r := blockedReq{msg: *m, txn: t, isWrite: isWrite}
	if se.tryRequest(&r) {
		se.maybeForget(t)
		return
	}
	blocked := new(blockedReq)
	*blocked = r
	se.enqueue(blocked)
}

// maybeForget drops the server's record of a transaction that holds no
// locks and has nothing outstanding. Read-only transactions commit purely
// locally at the client, so this is the only way their records get
// cleaned up.
func (se *ServerEngine) maybeForget(t *stxn) {
	if t.blocked == nil && t.round == nil && !t.aborting && se.Locks.LockCount(t.id) == 0 {
		se.forgetTxn(t.id)
	}
}

func (se *ServerEngine) enqueue(r *blockedReq) {
	ps := se.pageAt(r.msg.Obj.Page)
	ps.queue = append(ps.queue, r)
	r.txn.blocked = r
	if !r.blockedOnce {
		r.blockedOnce = true
		se.Stats.Blocks.Add(1)
		se.trace(obs.EvBlock, r.msg.Txn, r.msg.From, r.msg.Obj, 0)
	}
	se.deadlockCheck(r.txn)
}

// tryRequest attempts a queued or fresh request. It returns true when the
// request has been fully dispatched (granted, replied, or converted into a
// callback round) and false when it must (re)block.
func (se *ServerEngine) tryRequest(r *blockedReq) bool {
	if r.isWrite {
		return se.tryWrite(r)
	}
	return se.tryRead(r)
}

// ---- Reads ----

func (se *ServerEngine) tryRead(r *blockedReq) bool {
	m := &r.msg
	o, p := m.Obj, m.Obj.Page
	switch se.Proto {
	case PS:
		if h := se.Locks.PageXHolder(p); h != NoTxn && h != m.Txn {
			return false
		}
		if len(se.page(p).rounds) > 0 {
			return false
		}
		se.Copies.RegisterPage(m.From, p)
		se.replyMsg(m, MPageData, GrantNone, nil)
		return true

	case OS:
		if h := se.Locks.ObjXHolder(o); h != NoTxn && h != m.Txn {
			return false
		}
		if rd := se.roundOnObj(o); rd != nil && rd.txn.id != m.Txn {
			return false
		}
		se.Copies.RegisterObj(m.From, o)
		se.replyMsg(m, MObjData, GrantNone, nil)
		return true

	case PSOO, PSOA, PSWT:
		// The write token (PS-WT) never blocks readers: fine-grained read
		// sharing is the point of the scheme.
		if h := se.Locks.ObjXHolder(o); h != NoTxn && h != m.Txn {
			return false
		}
		if rd := se.roundOnObj(o); rd != nil && rd.txn.id != m.Txn {
			return false
		}
		unavail := se.unavailSlots(p, m.Txn)
		se.registerPageCopies(m.From, p, unavail)
		se.replyMsg(m, MPageData, GrantNone, unavail)
		return true

	case PSAA:
		if h := se.Locks.PageXHolder(p); h != NoTxn && h != m.Txn {
			se.ensureDeesc(p, h)
			return false
		}
		if h := se.Locks.ObjXHolder(o); h != NoTxn && h != m.Txn {
			return false
		}
		if len(se.page(p).rounds) > 0 {
			return false
		}
		unavail := se.unavailSlots(p, m.Txn)
		se.Copies.RegisterPage(m.From, p)
		se.replyMsg(m, MPageData, GrantNone, unavail)
		return true
	}
	panic("core: unknown protocol")
}

// registerPageCopies records the copies created by shipping page p to
// client c: per-object registration for PS-OO (each available object), a
// single page registration for PS-OA.
func (se *ServerEngine) registerPageCopies(c ClientID, p PageID, unavail []uint16) {
	if !se.Copies.ObjGranularity() {
		se.Copies.RegisterPage(c, p)
		return
	}
	for s := 0; s < se.Layout.ObjsPerPage; s++ {
		if !slices.Contains(unavail, uint16(s)) {
			se.Copies.RegisterObj(c, ObjID{Page: p, Slot: uint16(s)})
		}
	}
}

// ---- Writes ----

func (se *ServerEngine) tryWrite(r *blockedReq) bool {
	m := &r.msg
	o, p := m.Obj, m.Obj.Page
	switch se.Proto {
	case PS:
		if h := se.Locks.PageXHolder(p); h != NoTxn {
			if h == m.Txn {
				panic("core: write request while already holding page X")
			}
			return false
		}
		if len(se.page(p).rounds) > 0 {
			return false
		}
		holders := se.Copies.PageHolders(p, m.From)
		if len(holders) == 0 {
			se.grantPageX(m)
			return true
		}
		se.startRound(r, holders)
		return true

	case OS, PSOO:
		if h := se.Locks.ObjXHolder(o); h != NoTxn {
			if h == m.Txn {
				panic("core: write request while already holding object X")
			}
			return false
		}
		if rd := se.roundOnObj(o); rd != nil {
			return false
		}
		holders := se.Copies.ObjHolders(o, m.From)
		if len(holders) == 0 {
			se.grantObjX(m)
			return true
		}
		se.startRound(r, holders)
		return true

	case PSOA:
		if h := se.Locks.ObjXHolder(o); h != NoTxn {
			if h == m.Txn {
				panic("core: write request while already holding object X")
			}
			return false
		}
		if rd := se.roundOnObj(o); rd != nil {
			return false
		}
		holders := se.Copies.PageHolders(p, m.From)
		if len(holders) == 0 {
			se.grantObjX(m)
			return true
		}
		se.startRound(r, holders)
		return true

	case PSWT:
		if h := se.Locks.ObjXHolder(o); h != NoTxn {
			if h == m.Txn {
				panic("core: write request while already holding object X")
			}
			return false
		}
		if rd := se.roundOnObj(o); rd != nil {
			return false
		}
		// One updater per page at a time: the write token.
		if tok := se.page(p).token; tok != nil && tok.id != m.Txn {
			se.Stats.TokenWaits.Add(1)
			return false
		}
		holders := se.Copies.ObjHolders(o, m.From)
		if len(holders) == 0 {
			se.grantObjX(m)
			return true
		}
		se.startRound(r, holders)
		return true

	case PSAA:
		if h := se.Locks.PageXHolder(p); h != NoTxn && h != m.Txn {
			se.ensureDeesc(p, h)
			return false
		}
		if se.Locks.HoldsPageX(m.Txn, p) {
			panic("core: write request while already holding page X")
		}
		if h := se.Locks.ObjXHolder(o); h != NoTxn {
			if h == m.Txn {
				panic("core: write request while already holding object X")
			}
			return false
		}
		if len(se.page(p).rounds) > 0 {
			return false
		}
		holders := se.Copies.PageHolders(p, m.From)
		if len(holders) == 0 {
			if se.Locks.ObjXCount(p, m.Txn) == 0 {
				se.grantPageX(m)
			} else {
				se.grantObjX(m)
			}
			return true
		}
		se.startRound(r, holders)
		return true
	}
	panic("core: unknown protocol")
}

// needData decides whether a grant must carry the data item. The client
// asks for data when it knows it lacks the item (WantData); the server
// additionally ships data when its copy table shows the client's copy was
// revoked after the request was sent (callback races), or when a
// cancelled round's callback may still revoke it (race 7).
func (se *ServerEngine) needData(m *Msg) bool {
	if m.WantData {
		return true
	}
	for k, o := range se.unconfirmed {
		if k.c == m.From && o.Page == m.Obj.Page && (o == m.Obj || !se.Copies.ObjGranularity()) {
			return true
		}
	}
	if se.Copies.ObjGranularity() {
		return !se.Copies.HasObjCopy(m.From, m.Obj)
	}
	return !se.Copies.HasPageCopy(m.From, m.Page)
}

// grantPageX grants a page-level write lock and replies (with data if
// needed).
func (se *ServerEngine) grantPageX(m *Msg) {
	se.Locks.GrantPageX(m.Txn, m.From, m.Page)
	se.Stats.PageGrants.Add(1)
	se.trace(obs.EvGrant, m.Txn, m.From, m.Obj, int64(GrantPage))
	if se.needData(m) {
		// Under a page grant no other transaction holds locks on the page,
		// so nothing is unavailable.
		if se.Copies.ObjGranularity() {
			se.registerPageCopies(m.From, m.Page, nil)
		} else {
			se.Copies.RegisterPage(m.From, m.Page)
		}
		se.replyMsg(m, MPageData, GrantPage, nil)
		return
	}
	se.replyMsg(m, MGrant, GrantPage, nil)
}

// grantObjX grants an object-level write lock and replies (with data if
// needed). Under PS-WT the grant also takes the page's write token.
func (se *ServerEngine) grantObjX(m *Msg) {
	se.Locks.GrantObjX(m.Txn, m.From, m.Obj)
	se.Stats.ObjGrants.Add(1)
	se.trace(obs.EvGrant, m.Txn, m.From, m.Obj, int64(GrantObject))
	if se.Proto == PSWT {
		if tok := se.page(m.Page).token; tok == nil {
			t := se.getTxn(m.Txn, m.From)
			se.pageAt(m.Page).token = t
			t.tokens = append(t.tokens, m.Page)
		} else if tok.id != m.Txn {
			panic("core: object grant over a foreign write token")
		}
	}
	if se.needData(m) {
		if se.Proto == OS {
			se.Copies.RegisterObj(m.From, m.Obj)
			se.replyMsg(m, MObjData, GrantObject, nil)
			return
		}
		unavail := se.unavailSlots(m.Page, m.Txn)
		se.registerPageCopies(m.From, m.Page, unavail)
		se.replyMsg(m, MPageData, GrantObject, unavail)
		return
	}
	se.replyMsg(m, MGrant, GrantObject, nil)
}

// ---- Callback rounds ----

func (se *ServerEngine) startRound(r *blockedReq, holders []ClientID) {
	kind := se.Proto.callbackKind()
	se.nextRound++
	rd := &round{
		id:      se.nextRound,
		req:     r.msg,
		txn:     r.txn,
		page:    r.msg.Obj.Page,
		obj:     r.msg.Obj,
		pending: make(map[ClientID]bool, len(holders)),
		busy:    make(map[ClientID]TxnID),
	}
	se.rounds[rd.id] = rd
	ps := se.pageAt(rd.page)
	ps.rounds = append(ps.rounds, rd)
	r.txn.round = rd
	se.Stats.Rounds.Add(1)
	se.trace(obs.EvRound, rd.txn.id, r.msg.From, rd.obj, int64(len(holders)))
	for _, c := range holders {
		rd.pending[c] = true
		se.Stats.Callbacks.Add(1)
		se.trace(obs.EvCallback, rd.txn.id, c, rd.obj, int64(kind))
		// Quote the registration epoch this callback revokes.
		var epoch int64
		if kind == CBObject {
			epoch = se.Copies.ObjEpoch(c, rd.obj)
		} else {
			epoch = se.Copies.PageEpoch(c, rd.page)
		}
		se.send(Msg{Kind: MCallback, To: c, Txn: rd.txn.id, Req: rd.id,
			Page: rd.page, Obj: rd.obj, CB: kind, Epoch: epoch})
	}
}

// handleAck processes a callback reply: copy-table effects apply
// unconditionally (the client really did purge/keep), round bookkeeping
// only if the round is still live (it may have been cancelled by an
// abort).
func (se *ServerEngine) handleAck(m *Msg) {
	if !m.Busy {
		// Epoch-guarded: an ack for a copy that has since been re-granted
		// (newer registration epoch) must not cancel the new registration.
		switch m.CB {
		case CBPage:
			se.Copies.UnregisterPage(m.From, m.Page, m.Epoch)
		case CBObject:
			se.Copies.UnregisterObj(m.From, m.Obj, m.Epoch)
		case CBAdaptive:
			if m.Purged {
				se.Copies.UnregisterPage(m.From, m.Page, m.Epoch)
			}
		}
	}
	rd := se.rounds[m.Req]
	if rd == nil {
		// Round cancelled (victim aborted, requester gone); effects
		// already applied. A final answer confirms the copy again.
		if !m.Busy {
			delete(se.unconfirmed, callbackKey{c: m.From, round: m.Req})
		}
		return
	}
	var busy int64
	if m.Busy {
		busy = 1
	}
	se.trace(obs.EvCallbackAck, rd.txn.id, m.From, rd.obj, busy)
	if m.Busy {
		se.Stats.BusyReplies.Add(1)
		rd.busy[m.From] = m.BusyTxn
		se.deadlockCheck(rd.txn)
		return
	}
	if !rd.pending[m.From] {
		panic(fmt.Sprintf("core: unexpected ack from client %d for round %d", m.From, rd.id))
	}
	delete(rd.pending, m.From)
	delete(rd.busy, m.From)
	if !m.Purged {
		rd.anyKept = true
	}
	if len(rd.pending) == 0 {
		se.completeRound(rd)
	}
}

// completeRound finishes a callback round and grants the deferred write
// request at the appropriate granularity.
func (se *ServerEngine) completeRound(rd *round) {
	se.dropRound(rd)
	m := &rd.req
	switch se.Proto {
	case PS:
		se.grantPageX(m)
	case OS, PSOO, PSOA:
		se.grantObjX(m)
	case PSWT:
		// The token may have been taken by a direct grant while our
		// callbacks were in flight; if so, re-queue behind the holder.
		if tok := se.page(rd.page).token; tok != nil && tok.id != m.Txn {
			se.Stats.TokenWaits.Add(1)
			se.enqueue(&blockedReq{msg: rd.req, txn: rd.txn, isWrite: true, blockedOnce: true})
			se.retryQueue(rd.page)
			return
		}
		se.grantObjX(m)
	case PSAA:
		// Page-level grant is possible only if every copy was purged and
		// no other transaction retains object locks on the page.
		if !rd.anyKept &&
			se.Locks.ObjXCount(rd.page, m.Txn) == 0 &&
			se.Locks.PageXHolder(rd.page) == NoTxn &&
			len(se.Copies.PageHolders(rd.page, m.From)) == 0 {
			se.grantPageX(m)
		} else {
			se.grantObjX(m)
		}
	}
	se.retryQueue(rd.page)
}

// dropRound removes a round from the indexes. Recipients whose answer is
// still outstanding (a cancellation: victim abort, requester disconnect)
// are announced via EvRoundCancel so the host can retire any callback
// deadline it armed for them — they owe nothing to a dead round, and a
// stale deadline would let a watchdog depose a healthy client. Their
// copies stay unconfirmed until that answer arrives: the callback is
// still on its way and may purge them. Normal completion does neither:
// pending is empty by then.
func (se *ServerEngine) dropRound(rd *round) {
	for c := range rd.pending {
		se.trace(obs.EvRoundCancel, rd.txn.id, c, rd.obj, rd.id)
		if _, busy := rd.busy[c]; busy {
			continue // it keeps the copy until its transaction ends
		}
		if se.unconfirmed == nil {
			se.unconfirmed = make(map[callbackKey]ObjID)
		}
		se.unconfirmed[callbackKey{c: c, round: rd.id}] = rd.obj
	}
	delete(se.rounds, rd.id)
	ps := &se.pages[rd.page]
	for i, x := range ps.rounds {
		if x == rd {
			ps.rounds = append(ps.rounds[:i], ps.rounds[i+1:]...)
			break
		}
	}
	if len(ps.rounds) == 0 {
		ps.rounds = nil
	}
	rd.txn.round = nil
}

// ---- De-escalation (PS-AA) ----

// ensureDeesc asks the page-X holder to de-escalate, once per page at a
// time.
func (se *ServerEngine) ensureDeesc(p PageID, holder TxnID) {
	if se.page(p).deesc {
		return
	}
	ht := se.txns[holder]
	if ht == nil {
		panic(fmt.Sprintf("core: page X held by unknown txn %d", holder))
	}
	se.pageAt(p).deesc = true
	se.Stats.Deescalations.Add(1)
	se.trace(obs.EvDeesc, holder, ht.client, ObjID{Page: p}, 0)
	se.send(Msg{Kind: MDeescReq, To: ht.client, Txn: holder, Page: p})
}

// handleDeescReply converts the holder's page lock into object locks on
// the objects it reports, then retries the page's queue.
func (se *ServerEngine) handleDeescReply(m *Msg) {
	p := m.Page
	if uint(p) < uint(len(se.pages)) {
		se.pages[p].deesc = false
	}
	holder := se.Locks.PageXHolder(p)
	if holder != NoTxn && holder == m.Txn && len(m.DeescObjs) > 0 {
		se.Locks.Deescalate(holder, p, m.DeescObjs)
	}
	// If the holder committed/aborted in the meantime the lock is already
	// gone and the queue was retried then; retry again regardless (cheap,
	// and required in the normal case).
	se.retryQueue(p)
}

// ---- Commit / abort ----

func (se *ServerEngine) handleCommit(m *Msg) {
	if !se.IsSystem(m.From) {
		se.Stats.Commits.Add(1)
	}
	se.trace(obs.EvCommit, m.Txn, m.From, ObjID{}, int64(len(m.Objs)))
	t := se.txns[m.Txn]
	if t != nil && (t.blocked != nil || t.round != nil) {
		panic("core: commit from a blocked transaction")
	}
	// Install/merge accounting: pages committed under object-level locks
	// must be merged object-by-object; pages under a page lock install
	// wholesale. OS installs per object.
	switch {
	case se.Proto == OS:
		se.mergeObjs += int64(len(m.Objs))
	case se.Proto == PSWT:
		// The write token serialized all updaters of each page: committed
		// pages install wholesale, no merge — the scheme's selling point.
	default:
		for _, p := range m.Pages {
			if !se.Locks.HoldsPageX(m.Txn, p) {
				se.mergeObjs += int64(se.Locks.ObjXCountOnPage(m.Txn, p))
			}
		}
	}
	se.finishTxn(m.Txn)
	se.send(Msg{Kind: MCommitAck, To: m.From, Txn: m.Txn, Req: m.Req})
}

func (se *ServerEngine) handleAbort(m *Msg) {
	if !se.IsSystem(m.From) {
		se.Stats.Aborts.Add(1)
	}
	se.trace(obs.EvAbort, m.Txn, m.From, ObjID{}, 0)
	t := se.txns[m.Txn]
	roundPage := InvalidPage
	if t != nil {
		if t.blocked != nil {
			se.removeFromQueue(t.blocked)
			t.blocked = nil
		}
		if t.round != nil {
			roundPage = t.round.page
			se.dropRound(t.round)
		}
	}
	// Deregister the copies the client purged while aborting.
	se.applyDropped(m.From, m.PurgedPages, m.PurgedObjs)
	se.finishTxn(m.Txn)
	// The cancelled round may have been blocking requests on its page
	// (which the victim held no locks on, so finishTxn did not retry it).
	if roundPage != InvalidPage {
		se.retryQueue(roundPage)
	}
}

// finishTxn releases a transaction's locks (and write tokens), forgets it,
// and retries the queues of every page it touched.
func (se *ServerEngine) finishTxn(t TxnID) {
	var tokenPages []PageID
	if st := se.txns[t]; st != nil {
		for _, p := range st.tokens {
			if ps := &se.pages[p]; ps.token == st {
				ps.token = nil
				tokenPages = append(tokenPages, p)
			}
		}
	}
	pages := se.Locks.ReleaseAll(t)
	se.forgetTxn(t)
	for _, p := range pages {
		se.retryQueue(p)
	}
	// Token pages are normally a subset of the locked pages, but retry
	// them explicitly for safety.
	for _, p := range tokenPages {
		se.retryQueue(p)
	}
}

// removeFromQueue deletes a blocked request from its page queue.
func (se *ServerEngine) removeFromQueue(r *blockedReq) {
	ps := &se.pages[r.msg.Obj.Page]
	for i, x := range ps.queue {
		if x == r {
			ps.queue = append(ps.queue[:i], ps.queue[i+1:]...)
			break
		}
	}
	if len(ps.queue) == 0 {
		ps.queue = nil
	}
}

// TakeQueued removes every request queued for object o and returns them:
// their transactions are no longer blocked, and one left holding nothing is
// forgotten. The live server calls it when a migration's commit moves o, so
// that no request for the retired address is granted after the move (it
// answers each with a redirect instead); the simulator never moves objects.
func (se *ServerEngine) TakeQueued(o ObjID) []Msg {
	q := se.page(o.Page).queue
	if len(q) == 0 {
		return nil
	}
	var taken []Msg
	keep := q[:0]
	for _, r := range q {
		if r.msg.Obj != o {
			keep = append(keep, r)
			continue
		}
		r.txn.blocked = nil
		se.maybeForget(r.txn)
		taken = append(taken, r.msg)
	}
	clear(q[len(keep):])
	if len(keep) == 0 {
		keep = nil
	}
	se.pages[o.Page].queue = keep
	return taken
}

// retryQueue re-evaluates the blocked requests of page p in FIFO order.
// Requests that now succeed leave the queue; the rest stay blocked. A
// request that stays blocked may now be waiting on *different*
// transactions than when it first blocked (its old blocker released, a
// new round owns the page, ...), which can close a waits-for cycle, so
// each still-blocked request gets a fresh deadlock check.
func (se *ServerEngine) retryQueue(p PageID) {
	q := se.page(p).queue
	if len(q) == 0 {
		return
	}
	var remaining []*blockedReq
	for i := 0; i < len(q); i++ {
		r := q[i]
		if r.txn.aborting {
			remaining = append(remaining, r)
			continue
		}
		// Temporarily detach so tryRequest sees a clean state.
		r.txn.blocked = nil
		if se.tryRequest(r) {
			se.maybeForget(r.txn)
			continue
		}
		r.txn.blocked = r
		remaining = append(remaining, r)
	}
	se.pages[p].queue = remaining
	for _, r := range remaining {
		if r.txn.blocked == r && !r.txn.aborting {
			se.deadlockCheck(r.txn)
		}
	}
}

// ---- Client disconnect (live system) ----

// Disconnect cleans up after a departed client: its transactions are
// aborted (locks released, queued requests and rounds cancelled), rounds
// awaiting its callback acks are completed as if it purged everything (its
// cache is gone), and all its registered copies are dropped. The returned
// messages (grants unblocked by the cleanup) must be dispatched.
func (se *ServerEngine) Disconnect(c ClientID) []Msg {
	se.out = se.out[:0]

	var mine []*stxn
	for _, t := range se.txns {
		if t.client == c {
			mine = append(mine, t)
		}
	}
	for i := 1; i < len(mine); i++ {
		for j := i; j > 0 && mine[j].id < mine[j-1].id; j-- {
			mine[j], mine[j-1] = mine[j-1], mine[j]
		}
	}
	for _, t := range mine {
		if t.blocked != nil {
			se.removeFromQueue(t.blocked)
			t.blocked = nil
		}
		roundPage := InvalidPage
		if t.round != nil {
			roundPage = t.round.page
			se.dropRound(t.round)
		}
		t.aborting = true // suppress victim selection against a ghost
		if !se.IsSystem(c) {
			se.Stats.Aborts.Add(1)
		}
		se.trace(obs.EvAbort, t.id, c, ObjID{}, 1)
		se.finishTxn(t.id)
		if roundPage != InvalidPage {
			se.retryQueue(roundPage)
		}
	}

	// Answer outstanding callbacks on the ghost's behalf: everything it
	// cached is gone, so every pending ack becomes "purged".
	var open []*round
	for _, rd := range se.rounds {
		if rd.pending[c] {
			open = append(open, rd)
		}
	}
	for i := 1; i < len(open); i++ {
		for j := i; j > 0 && open[j].id < open[j-1].id; j-- {
			open[j], open[j-1] = open[j-1], open[j]
		}
	}
	for _, rd := range open {
		var epoch int64
		if se.Proto.callbackKind() == CBObject {
			epoch = se.Copies.ObjEpoch(c, rd.obj)
		} else if !se.Copies.ObjGranularity() {
			epoch = se.Copies.PageEpoch(c, rd.page)
		}
		ack := Msg{Kind: MCallbackAck, From: c, Req: rd.id, Page: rd.page, Obj: rd.obj,
			CB: se.Proto.callbackKind(), Purged: true, Epoch: epoch}
		se.handleAck(&ack)
	}

	se.Copies.DropClient(c)
	for k := range se.unconfirmed {
		if k.c == c {
			delete(se.unconfirmed, k)
		}
	}
	return se.out
}

// ---- Deadlock detection ----

// deadlockCheck searches the waits-for graph for cycles through t,
// aborting one member of each cycle found (see findCycle). A single
// trigger can close several distinct cycles at once (e.g. a busy reply
// from one client completing two alternative paths), so the search repeats
// until no cycle through t remains; aborting victims leave the graph for
// subsequent passes.
func (se *ServerEngine) deadlockCheck(t *stxn) {
	for !t.aborting {
		path := []*stxn{t}
		onPath := map[TxnID]bool{t.id: true}
		victim := se.findCycle(t, t, path, onPath)
		if se.DebugCheckLog != nil {
			v := TxnID(0)
			if victim != nil {
				v = victim.id
			}
			se.DebugCheckLog(t.id, se.waitsFor(t), v)
		}
		if victim == nil {
			return
		}
		se.Stats.Deadlocks.Add(1)
		se.abortVictim(victim)
	}
}

// findCycle DFSes from cur looking for start; on finding a cycle it
// returns its victim: a system client's transaction if one is on it
// (housekeeping yields to workload), else the youngest (highest-id) member.
func (se *ServerEngine) findCycle(start, cur *stxn, path []*stxn, onPath map[TxnID]bool) *stxn {
	for _, next := range se.waitsFor(cur) {
		nt := se.txns[next]
		if nt == nil || nt.aborting {
			continue
		}
		if nt == start {
			victim := path[0]
			for _, s := range path[1:] {
				if sys, vsys := se.IsSystem(s.client), se.IsSystem(victim.client); sys != vsys {
					if sys {
						victim = s
					}
				} else if s.id > victim.id {
					victim = s
				}
			}
			return victim
		}
		if onPath[nt.id] {
			continue // cycle not through start; its own trigger will catch it
		}
		onPath[nt.id] = true
		if v := se.findCycle(start, nt, append(path, nt), onPath); v != nil {
			return v
		}
		delete(onPath, nt.id)
	}
	return nil
}

// waitsFor enumerates the transactions t is directly waiting on, in
// deterministic order.
func (se *ServerEngine) waitsFor(t *stxn) []TxnID {
	var deps []TxnID
	add := func(x TxnID) {
		if x == NoTxn || x == t.id {
			return
		}
		for _, d := range deps {
			if d == x {
				return
			}
		}
		deps = append(deps, x)
	}
	if r := t.blocked; r != nil {
		o, p := r.msg.Obj, r.msg.Obj.Page
		switch se.Proto {
		case PS:
			add(se.Locks.PageXHolder(p))
			for _, rd := range se.page(p).rounds {
				add(rd.txn.id)
			}
		case OS, PSOO, PSOA:
			add(se.Locks.ObjXHolder(o))
			if rd := se.roundOnObj(o); rd != nil {
				add(rd.txn.id)
			}
		case PSWT:
			add(se.Locks.ObjXHolder(o))
			if rd := se.roundOnObj(o); rd != nil {
				add(rd.txn.id)
			}
			if r.isWrite {
				if tok := se.page(p).token; tok != nil {
					add(tok.id)
				}
			}
		case PSAA:
			add(se.Locks.PageXHolder(p))
			add(se.Locks.ObjXHolder(o))
			for _, rd := range se.page(p).rounds {
				add(rd.txn.id)
			}
		}
	}
	if rd := t.round; rd != nil {
		// Busy repliers block the round; enumerate in client order for
		// determinism.
		var clients []ClientID
		for c := range rd.busy {
			clients = append(clients, c)
		}
		for i := 1; i < len(clients); i++ {
			for j := i; j > 0 && clients[j] < clients[j-1]; j-- {
				clients[j], clients[j-1] = clients[j-1], clients[j]
			}
		}
		for _, c := range clients {
			add(rd.busy[c])
		}
	}
	return deps
}

// abortVictim initiates a deadlock abort: cancel the victim's outstanding
// request and tell its client. Locks are released when the client's
// MAbortReq arrives.
func (se *ServerEngine) abortVictim(v *stxn) {
	v.aborting = true
	se.trace(obs.EvDeadlock, v.id, v.client, ObjID{}, 0)
	var reqID int64
	roundPage := InvalidPage
	if v.blocked != nil {
		reqID = v.blocked.msg.Req
		se.removeFromQueue(v.blocked)
		v.blocked = nil
	}
	if v.round != nil {
		reqID = v.round.req.Req
		roundPage = v.round.page
		se.dropRound(v.round)
	}
	se.send(Msg{Kind: MAbortYou, To: v.client, Txn: v.id, Req: reqID})
	// Requests blocked on the cancelled round can proceed now.
	if roundPage != InvalidPage {
		se.retryQueue(roundPage)
	}
}
