package core

// CopyTab tracks where cached copies of data items reside, at either page
// granularity (PS, PS-OA, PS-AA) or object granularity (OS, PS-OO). The
// server consults it to direct callbacks; RegisterCopyInst is charged per
// register/unregister operation.
//
// Page-granularity sets are dense by page: pages[p] is page p's set, the
// slice grows to the highest page ever registered, and a set emptied by
// deregistration keeps its array for the next registration. The object
// table stays a map.
//
// Every registration carries an epoch (a global monotonic counter, bumped
// on every register, including re-registrations). Callbacks quote the
// epoch of the registration they revoke and deregistration is skipped for
// superseded epochs. This closes a fundamental race: a client may
// truthfully ack "purged" for an old copy while a newer grant for the same
// item is already in flight to it — without epochs that late ack would
// wipe the fresh registration and the next writer would skip a required
// callback (a stale-read serializability violation).
type CopyTab struct {
	objGran   bool
	pages     []clientSet
	objs      map[ObjID]clientSet
	nextEpoch int64
	holders   []ClientID // PageHolders' and ObjHolders' result, reused

	// Ops counts register/unregister operations for CPU costing.
	Ops int64
}

// copyEntry is one registration.
type copyEntry struct {
	c     ClientID
	epoch int64
}

// clientSet is a small slice of registrations sorted by client id; sorted
// order keeps callback fan-out deterministic.
type clientSet []copyEntry

func (s clientSet) find(c ClientID) int {
	for i, x := range s {
		if x.c == c {
			return i
		}
	}
	return -1
}

func (s clientSet) has(c ClientID) bool { return s.find(c) >= 0 }

func (s clientSet) add(c ClientID, epoch int64) clientSet {
	if i := s.find(c); i >= 0 {
		s[i].epoch = epoch
		return s
	}
	i := 0
	for i < len(s) && s[i].c < c {
		i++
	}
	s = append(s, copyEntry{})
	copy(s[i+1:], s[i:])
	s[i] = copyEntry{c: c, epoch: epoch}
	return s
}

// remove deletes c's registration if its epoch is not newer than the ack's
// epoch (epoch < 0 forces removal).
func (s clientSet) remove(c ClientID, epoch int64) (clientSet, bool) {
	i := s.find(c)
	if i < 0 {
		return s, false
	}
	if epoch >= 0 && s[i].epoch > epoch {
		return s, false // superseded by a newer registration
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}

// NewCopyTab creates a copy table; objGran selects object granularity.
func NewCopyTab(objGran bool) *CopyTab {
	ct := &CopyTab{objGran: objGran}
	if objGran {
		ct.objs = make(map[ObjID]clientSet)
	}
	return ct
}

// pageSet returns page p's set (nil if p was never registered).
func (ct *CopyTab) pageSet(p PageID) clientSet {
	if uint(p) < uint(len(ct.pages)) {
		return ct.pages[p]
	}
	return nil
}

// ObjGranularity reports whether copies are tracked per object.
func (ct *CopyTab) ObjGranularity() bool { return ct.objGran }

// RegisterPage records that client c caches page p (page granularity).
// Re-registration bumps the epoch so in-flight acks against the previous
// copy cannot cancel this one.
func (ct *CopyTab) RegisterPage(c ClientID, p PageID) {
	if ct.objGran {
		panic("core: RegisterPage on object-granularity copy table")
	}
	ct.pages = growFor(ct.pages, p)
	ct.nextEpoch++
	ct.pages[p] = ct.pages[p].add(c, ct.nextEpoch)
	ct.Ops++
}

// UnregisterPage removes client c's copy of page p if the registration is
// not newer than ackEpoch. Pass NoEpoch for unconditional removal (abort
// purges and drop notices, which are FIFO-ordered with registrations).
func (ct *CopyTab) UnregisterPage(c ClientID, p PageID, ackEpoch int64) {
	if ct.objGran {
		panic("core: UnregisterPage on object-granularity copy table")
	}
	s, ok := ct.pageSet(p).remove(c, ackEpoch)
	if !ok {
		return
	}
	ct.Ops++
	ct.pages[p] = s
}

// RegisterObj records that client c caches object o (object granularity).
func (ct *CopyTab) RegisterObj(c ClientID, o ObjID) {
	if !ct.objGran {
		panic("core: RegisterObj on page-granularity copy table")
	}
	ct.nextEpoch++
	ct.objs[o] = ct.objs[o].add(c, ct.nextEpoch)
	ct.Ops++
}

// UnregisterObj removes client c's copy of object o if the registration is
// not newer than ackEpoch (NoEpoch = unconditional).
func (ct *CopyTab) UnregisterObj(c ClientID, o ObjID, ackEpoch int64) {
	if !ct.objGran {
		panic("core: UnregisterObj on page-granularity copy table")
	}
	s, ok := ct.objs[o].remove(c, ackEpoch)
	if !ok {
		return
	}
	ct.Ops++
	if len(s) == 0 {
		delete(ct.objs, o)
	} else {
		ct.objs[o] = s
	}
}

// NoEpoch requests unconditional deregistration.
const NoEpoch int64 = -1

// PageEpoch returns the epoch of client c's registration for page p (0 if
// none).
func (ct *CopyTab) PageEpoch(c ClientID, p PageID) int64 {
	s := ct.pageSet(p)
	if i := s.find(c); i >= 0 {
		return s[i].epoch
	}
	return 0
}

// ObjEpoch returns the epoch of client c's registration for object o (0 if
// none).
func (ct *CopyTab) ObjEpoch(c ClientID, o ObjID) int64 {
	if i := ct.objs[o].find(c); i >= 0 {
		return ct.objs[o][i].epoch
	}
	return 0
}

// PageHolders returns the clients caching page p, excluding except, in
// ascending order. Page granularity only. The returned slice is reused by
// the next PageHolders or ObjHolders.
func (ct *CopyTab) PageHolders(p PageID, except ClientID) []ClientID {
	if ct.objGran {
		panic("core: PageHolders on object-granularity copy table")
	}
	return ct.holdersExcept(ct.pageSet(p), except)
}

// ObjHolders returns the clients caching object o, excluding except, in
// ascending order. Object granularity only. The returned slice is reused
// by the next PageHolders or ObjHolders.
func (ct *CopyTab) ObjHolders(o ObjID, except ClientID) []ClientID {
	if !ct.objGran {
		panic("core: ObjHolders on page-granularity copy table")
	}
	return ct.holdersExcept(ct.objs[o], except)
}

func (ct *CopyTab) holdersExcept(s clientSet, except ClientID) []ClientID {
	if len(s) == 0 {
		return nil
	}
	out := ct.holders[:0]
	for _, e := range s {
		if e.c != except {
			out = append(out, e.c)
		}
	}
	ct.holders = out
	return out
}

// HasPageCopy reports whether client c is recorded as caching page p.
func (ct *CopyTab) HasPageCopy(c ClientID, p PageID) bool {
	return !ct.objGran && ct.pageSet(p).has(c)
}

// HasObjCopy reports whether client c is recorded as caching object o.
func (ct *CopyTab) HasObjCopy(c ClientID, o ObjID) bool {
	return ct.objGran && ct.objs[o].has(c)
}

// CopyCount returns the total number of recorded copies (diagnostics).
func (ct *CopyTab) CopyCount() int {
	n := 0
	if ct.objGran {
		for _, s := range ct.objs {
			n += len(s)
		}
	} else {
		for _, s := range ct.pages {
			n += len(s)
		}
	}
	return n
}

// DropClient removes every copy recorded for client c (live-system client
// disconnect).
func (ct *CopyTab) DropClient(c ClientID) {
	if ct.objGran {
		for o, s := range ct.objs {
			if s2, ok := s.remove(c, NoEpoch); ok {
				ct.Ops++
				if len(s2) == 0 {
					delete(ct.objs, o)
				} else {
					ct.objs[o] = s2
				}
			}
		}
		return
	}
	for p, s := range ct.pages {
		if s2, ok := s.remove(c, NoEpoch); ok {
			ct.Ops++
			ct.pages[p] = s2
		}
	}
}

// TakeOps returns the op count accumulated since the last call and resets
// it.
func (ct *CopyTab) TakeOps() int64 {
	n := ct.Ops
	ct.Ops = 0
	return n
}
