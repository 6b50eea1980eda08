// Package core implements the paper's primary contribution: the five
// granularity protocols for fine-grained sharing in a data-shipping OODBMS
// (PS, OS, PS-OO, PS-OA, PS-AA), expressed as pure, driver-agnostic state
// machines.
//
// The package contains:
//
//   - identifiers and the physical database layout (ids.go),
//   - the client/server message vocabulary with wire sizes (msg.go),
//   - the server-side lock table with page- and object-granularity X
//     locks, de-escalation and re-escalation (locktab.go),
//   - the cached-copy (replica location) table (copytab.go),
//   - the client cache state machine: page/object residence, availability
//     marks, LRU replacement, merge bookkeeping (cache.go),
//   - the waits-for deadlock detector (deadlock.go),
//   - the server protocol engine (server.go) and the client protocol
//     logic (client.go).
//
// None of the code here knows about time, goroutines, the network, or
// disks: events go in, actions (plus accounting of the CPU-relevant
// operations performed) come out. The simulator (internal/model) and the
// live system (internal/live) are alternative drivers of this logic.
package core

import "fmt"

// PageID identifies a physical database page (the unit of disk transfer
// and, for page servers, of client-server transfer).
type PageID int32

// InvalidPage is the zero PageID sentinel; valid pages are numbered >= 0
// and InvalidPage is -1.
const InvalidPage PageID = -1

// growFor returns s extended with zero entries so that s[p] exists: the
// engine's and the client cache's page tables are slices indexed by page
// (DESIGN.md §18). A negative page is a caller's bug.
func growFor[T any](s []T, p PageID) []T {
	if p < 0 {
		panic(fmt.Sprintf("core: invalid page %d", p))
	}
	if n := int(p) + 1 - len(s); n > 0 {
		s = append(s, make([]T, n)...)
	}
	return s
}

// ObjID identifies an object by its home page and slot within the page.
// Objects are assumed smaller than a page (the paper handles large objects
// page-at-a-time, outside the scope of the granularity protocols).
type ObjID struct {
	Page PageID
	Slot uint16
}

func (o ObjID) String() string { return fmt.Sprintf("%d.%d", o.Page, o.Slot) }

// ClientID identifies a client workstation (1-based; 0 is reserved).
type ClientID int32

// NoClient is the absent-client sentinel.
const NoClient ClientID = 0

// TxnID identifies one transaction *execution* (a restarted transaction
// gets a fresh TxnID). IDs increase monotonically with start order, which
// the deadlock detector uses for its youngest-victim policy.
type TxnID int64

// NoTxn is the absent-transaction sentinel.
const NoTxn TxnID = 0

// Layout describes the physical database layout: how logical object
// numbers map onto pages. The default layout is sequential; the
// Interleaved PRIVATE workload (Section 5.5 of the paper) installs a remap
// that interleaves the hot objects of client pairs onto shared pages.
type Layout struct {
	NumPages    int
	ObjsPerPage int
	// remap, if non-nil, translates a "logical" object index into its
	// physical object id; len(remap) == NumPages*ObjsPerPage.
	remap []ObjID
}

// NewLayout builds a sequential layout.
func NewLayout(numPages, objsPerPage int) *Layout {
	if numPages <= 0 || objsPerPage <= 0 {
		panic("core: layout dimensions must be positive")
	}
	return &Layout{NumPages: numPages, ObjsPerPage: objsPerPage}
}

// NumObjects returns the total number of objects in the database.
func (l *Layout) NumObjects() int { return l.NumPages * l.ObjsPerPage }

// Obj maps a logical object index in [0, NumObjects) to its ObjID.
func (l *Layout) Obj(index int) ObjID {
	if index < 0 || index >= l.NumObjects() {
		panic(fmt.Sprintf("core: object index %d out of range", index))
	}
	if l.remap != nil {
		return l.remap[index]
	}
	return ObjID{Page: PageID(index / l.ObjsPerPage), Slot: uint16(index % l.ObjsPerPage)}
}

// SetRemap installs a remap table; len(remap) must equal NumObjects.
func (l *Layout) SetRemap(remap []ObjID) {
	if len(remap) != l.NumObjects() {
		panic("core: remap length mismatch")
	}
	l.remap = remap
}

// InterleavePairs builds the Interleaved PRIVATE remap described in
// Section 5.5: for each pair of clients (1,2), (3,4), ..., the hot objects
// of the pair are redistributed over their combined hot pages so that the
// first client's objects occupy the top half of every page and the second
// client's the bottom half. hotStart(c) gives the first page of client c's
// hot region and hotPages its length; clients are 1-based, numClients must
// be even for full pairing (a trailing unpaired client keeps its layout).
func InterleavePairs(l *Layout, numClients int, hotStart func(c int) PageID, hotPages int) {
	remap := make([]ObjID, l.NumObjects())
	for i := range remap {
		remap[i] = ObjID{Page: PageID(i / l.ObjsPerPage), Slot: uint16(i % l.ObjsPerPage)}
	}
	half := l.ObjsPerPage / 2
	for c := 1; c+1 <= numClients; c += 2 {
		aStart, bStart := hotStart(c), hotStart(c+1)
		// The combined region is the union of both hot regions (2*hotPages
		// pages). Client c's hotPages*ObjsPerPage objects spread across all
		// combined pages' top halves; client c+1's across bottom halves.
		combined := make([]PageID, 0, 2*hotPages)
		for i := 0; i < hotPages; i++ {
			combined = append(combined, aStart+PageID(i))
		}
		for i := 0; i < hotPages; i++ {
			combined = append(combined, bStart+PageID(i))
		}
		place := func(start PageID, topHalf bool) {
			k := 0
			for i := 0; i < hotPages; i++ {
				for s := 0; s < l.ObjsPerPage; s++ {
					logical := int(start+PageID(i))*l.ObjsPerPage + s
					pg := combined[k/half]
					slot := k % half
					if !topHalf {
						slot += half
					}
					remap[logical] = ObjID{Page: pg, Slot: uint16(slot)}
					k++
				}
			}
		}
		place(aStart, true)
		place(bStart, false)
	}
	l.SetRemap(remap)
}
