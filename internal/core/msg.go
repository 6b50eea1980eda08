package core

// Protocol selects one of the five granularity alternatives studied in the
// paper (Section 3).
type Protocol int

const (
	// PS is the basic page server: page transfer, page locking, page
	// callbacks, page-granularity copy tracking (Section 3.2.1).
	PS Protocol = iota
	// OS is the basic object server: everything at object granularity
	// (Section 3.2.2).
	OS
	// PSOO is the page server with static object locking and object
	// callbacks; copies tracked per object (Section 3.3.1).
	PSOO
	// PSOA is the page server with object locking and adaptive
	// (de-escalating) callbacks; copies tracked per page (Section 3.3.2).
	PSOA
	// PSAA is the page server with adaptive locking and adaptive
	// callbacks; copies tracked per page (Section 3.3.3).
	PSAA
	// PSWT is the write-token alternative the paper defers to future work
	// (Section 6.1, after [Moha91]): object-level locking and callbacks as
	// in PS-OO, but concurrent updates to one page are disallowed — a
	// single per-page write token serializes updaters, so copies never
	// diverge and no merging is needed anywhere. Readers are unaffected.
	PSWT
)

var protocolNames = [...]string{"PS", "OS", "PS-OO", "PS-OA", "PS-AA", "PS-WT"}

func (p Protocol) String() string {
	if p < 0 || int(p) >= len(protocolNames) {
		return "Protocol(?)"
	}
	return protocolNames[p]
}

// Protocols lists the paper's five alternatives in presentation order (the
// evaluation's comparison set).
var Protocols = []Protocol{PS, OS, PSOO, PSOA, PSAA}

// AllProtocols additionally includes the Section 6.1 write-token variant.
var AllProtocols = []Protocol{PS, OS, PSOO, PSOA, PSAA, PSWT}

// ParseProtocol converts a name like "PS-AA" (case-sensitive, as printed)
// to a Protocol; ok is false for unknown names.
func ParseProtocol(s string) (Protocol, bool) {
	for i, n := range protocolNames {
		if n == s {
			return Protocol(i), true
		}
	}
	return 0, false
}

// TransferObjects reports whether client-server data transfer is at object
// granularity (true only for OS).
func (p Protocol) TransferObjects() bool { return p == OS }

// LockGranularity facets.

// PageLocks reports whether page-level write locks exist in this protocol.
func (p Protocol) PageLocks() bool { return p == PS || p == PSAA }

// ObjectLocks reports whether object-level write locks exist.
func (p Protocol) ObjectLocks() bool { return p != PS }

// AdaptiveLocks reports whether lock granularity is chosen dynamically.
func (p Protocol) AdaptiveLocks() bool { return p == PSAA }

// ObjectCopies reports whether the server tracks cached copies at object
// granularity (OS, PS-OO, PS-WT) rather than page granularity.
func (p Protocol) ObjectCopies() bool { return p == OS || p == PSOO || p == PSWT }

// AdaptiveCallbacks reports whether callbacks de-escalate adaptively
// (purge the page if unused, else call back just the object).
func (p Protocol) AdaptiveCallbacks() bool { return p == PSOA || p == PSAA }

// callbackKind is the kind of every callback the protocol sends.
func (p Protocol) callbackKind() CallbackKind {
	switch {
	case p.AdaptiveCallbacks():
		return CBAdaptive
	case p.ObjectCopies():
		return CBObject
	}
	return CBPage
}

// MsgKind enumerates the client/server message vocabulary.
type MsgKind int

const (
	// Client -> server requests.
	MReadReq     MsgKind = iota // fetch the page holding Obj (or the object, for OS)
	MWriteReq                   // obtain write permission on Obj (page-level for PS)
	MCommitReq                  // commit: carries updated pages/objects
	MAbortReq                   // client-initiated/deadlock abort completion: release locks, purge notices
	MCallbackAck                // reply to a callback: purged/kept, or busy
	MDeescReply                 // reply to a de-escalation request (PS-AA)

	// Server -> client responses and requests.
	MPageData  // page contents (+ optional write grant): read reply or write grant with data
	MObjData   // object contents (OS)
	MGrant     // write grant without data (control-sized)
	MCommitAck // commit done
	MAbortYou  // your transaction was chosen as a deadlock victim
	MCallback  // callback request (page, object, or adaptive)
	MDeescReq  // de-escalate your page-level write lock (PS-AA)
	MHello     // live-system handshake: assigned client id + geometry
	// MRelocated: the requested object has been migrated by the online
	// reclusterer. Obj echoes the requested (old) address; Objs[0] is the
	// new address the client should retry against.
	MRelocated
)

var msgKindNames = [...]string{
	"ReadReq", "WriteReq", "CommitReq", "AbortReq", "CallbackAck", "DeescReply",
	"PageData", "ObjData", "Grant", "CommitAck", "AbortYou", "Callback", "DeescReq",
	"Hello", "Relocated",
}

func (k MsgKind) String() string {
	if k < 0 || int(k) >= len(msgKindNames) {
		return "MsgKind(?)"
	}
	return msgKindNames[k]
}

// GrantLevel describes the granularity of a write grant.
type GrantLevel int

const (
	GrantNone GrantLevel = iota
	GrantObject
	GrantPage
)

func (g GrantLevel) String() string {
	switch g {
	case GrantObject:
		return "object"
	case GrantPage:
		return "page"
	default:
		return "none"
	}
}

// CallbackKind describes what a callback asks the client to do.
type CallbackKind int

const (
	// CBPage: purge the whole page (basic PS).
	CBPage CallbackKind = iota
	// CBObject: mark/purge just the object (OS, PS-OO).
	CBObject
	// CBAdaptive: purge the whole page if it is not in use; otherwise keep
	// the page and mark just Obj unavailable (PS-OA, PS-AA).
	CBAdaptive
)

func (k CallbackKind) String() string {
	switch k {
	case CBPage:
		return "page"
	case CBObject:
		return "object"
	default:
		return "adaptive"
	}
}

// Msg is the single wire format for all client/server interactions. A fat
// struct keeps both drivers (simulated and live) simple; unused fields are
// zero.
type Msg struct {
	Kind MsgKind
	From ClientID // sender client (0 when from server)
	To   ClientID // destination client (0 when to server)
	Txn  TxnID    // requesting/affected transaction
	Req  int64    // request id for reply matching / round id for callbacks

	Page PageID
	Obj  ObjID

	// WantData, on MWriteReq: the client lacks the data item and wants it
	// delivered with the grant.
	WantData bool

	// Unavail lists slots marked unavailable in a delivered page.
	Unavail []uint16

	// Grant carries the granted lock level on MPageData/MObjData/MGrant.
	Grant GrantLevel

	// Callback fields.
	CB      CallbackKind
	Purged  bool // on MCallbackAck: whole page (or the object, for object CBs) was purged
	Busy    bool // on MCallbackAck: cannot comply yet; BusyTxn is using the item
	BusyTxn TxnID
	// Epoch identifies the copy-table registration a callback revokes;
	// acks echo it so a late ack cannot deregister a newer registration.
	Epoch int64

	// Commit payloads: updated pages shipped back (page-server modes) or
	// updated objects (OS). The server derives lock-release and merge
	// bookkeeping from its own lock table, so no extra metadata travels.
	Pages       []PageID
	Objs        []ObjID
	PurgedPages []PageID // MAbortReq: pages purged by the aborting client
	PurgedObjs  []ObjID  // MAbortReq (OS): objects purged

	// DeescObjs: on MDeescReply, the objects of Page the holder updated.
	DeescObjs []ObjID

	// Dropped* piggyback cache eviction notices on any client->server
	// message so the server's copy table stays accurate.
	DroppedPages []PageID
	DroppedObjs  []ObjID

	// Data carries real bytes in the live system (nil in simulation): the
	// full page for MPageData, the object for MObjData.
	Data []byte
	// Updates carries per-object afterimages on a live MCommitReq.
	Updates map[ObjID][]byte

	// Live-system handshake payload (MHello).
	HelloID      ClientID
	HelloPages   int32
	HelloObjsPP  int32
	HelloObjSize int32
	HelloProto   Protocol

	// Relocs, on an MCommitReq from the reclusterer's in-process system
	// client, lists the old->new placements this commit installs. It never
	// crosses the wire codec, and the engine admits it only from a system
	// client (ServerEngine.Admit).
	Relocs []RelocEntry
}

// RelocEntry records one object migration: reads and writes addressed to
// From are served at To once the installing commit is durable.
type RelocEntry struct {
	From ObjID
	To   ObjID
}

// SizeBytes computes the wire size of the message per the paper's cost
// model: control messages are ControlMsgSize bytes; data messages add the
// page size (or object size) per carried item.
func (m *Msg) SizeBytes(controlSize, pageSize, objSize int) int {
	n := controlSize
	switch m.Kind {
	case MPageData:
		n += pageSize
	case MObjData:
		n += objSize
	case MCommitReq:
		n += len(m.Pages)*pageSize + len(m.Objs)*objSize
	}
	// Piggybacked notices and slot lists are small enough to live inside
	// the control allowance.
	return n
}

// IsReply reports whether the message kind is a server reply that
// completes a client's outstanding request.
func (k MsgKind) IsReply() bool {
	switch k {
	case MPageData, MObjData, MGrant, MCommitAck, MAbortYou:
		return true
	}
	return false
}
