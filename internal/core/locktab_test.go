package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestLockTabGrantRelease(t *testing.T) {
	lt := NewLockTab()
	o := ObjID{Page: 3, Slot: 2}
	lt.GrantObjX(1, 10, o)
	if lt.ObjXHolder(o) != 1 {
		t.Fatal("obj X not recorded")
	}
	if !lt.HoldsObjX(1, o) {
		t.Fatal("HoldsObjX false")
	}
	lt.GrantPageX(1, 10, 5)
	if lt.PageXHolder(5) != 1 {
		t.Fatal("page X not recorded")
	}
	pages := lt.ReleaseAll(1)
	if len(pages) != 2 || pages[0] != 3 || pages[1] != 5 {
		t.Fatalf("affected pages = %v", pages)
	}
	if !lt.Empty() {
		t.Fatal("table not empty after release")
	}
}

func TestLockTabConflictPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	lt := NewLockTab()
	lt.GrantPageX(1, 10, 5)
	expectPanic("pageX over pageX", func() { lt.GrantPageX(2, 11, 5) })
	expectPanic("objX under foreign pageX", func() { lt.GrantObjX(2, 11, ObjID{Page: 5, Slot: 0}) })

	lt2 := NewLockTab()
	lt2.GrantObjX(1, 10, ObjID{Page: 7, Slot: 3})
	expectPanic("objX over objX", func() { lt2.GrantObjX(2, 11, ObjID{Page: 7, Slot: 3}) })
	expectPanic("pageX over foreign objX", func() { lt2.GrantPageX(2, 11, 7) })
}

func TestLockTabEscalationAbsorbsOwnObjLocks(t *testing.T) {
	lt := NewLockTab()
	o1 := ObjID{Page: 4, Slot: 0}
	o2 := ObjID{Page: 4, Slot: 9}
	lt.GrantObjX(1, 10, o1)
	lt.GrantObjX(1, 10, o2)
	lt.GrantPageX(1, 10, 4) // re-escalation: same txn
	if !lt.HoldsPageX(1, 4) {
		t.Fatal("page X missing after escalation")
	}
	if lt.HoldsObjX(1, o1) || lt.HoldsObjX(1, o2) {
		t.Fatal("object locks should be absorbed")
	}
	if lt.LockCount(1) != 1 {
		t.Fatalf("lock count = %d, want 1", lt.LockCount(1))
	}
}

func TestLockTabDeescalate(t *testing.T) {
	lt := NewLockTab()
	lt.GrantPageX(7, 2, 9)
	objs := []ObjID{{Page: 9, Slot: 1}, {Page: 9, Slot: 5}}
	lt.Deescalate(7, 9, objs)
	if lt.PageXHolder(9) != NoTxn {
		t.Fatal("page X survived de-escalation")
	}
	for _, o := range objs {
		if lt.ObjXHolder(o) != 7 {
			t.Fatalf("obj %v not locked after de-escalation", o)
		}
	}
	// Another txn can now lock a different object on the page.
	lt.GrantObjX(8, 3, ObjID{Page: 9, Slot: 7})
	if n := lt.ObjXCount(9, 7); n != 1 {
		t.Fatalf("foreign obj lock count = %d, want 1", n)
	}
	slots := lt.ObjXSlots(9, 8)
	if len(slots) != 2 || slots[0] != 1 || slots[1] != 5 {
		t.Fatalf("foreign slots for txn 8 = %v", slots)
	}
}

func TestLockTabDeescalateWrongHolderPanics(t *testing.T) {
	lt := NewLockTab()
	lt.GrantPageX(7, 2, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lt.Deescalate(8, 9, nil)
}

func TestLockTabTxnPagesSorted(t *testing.T) {
	lt := NewLockTab()
	lt.GrantObjX(1, 5, ObjID{Page: 30, Slot: 0})
	lt.GrantObjX(1, 5, ObjID{Page: 10, Slot: 0})
	lt.GrantPageX(1, 5, 20)
	pages := lt.TxnPages(1)
	if len(pages) != 3 || pages[0] != 10 || pages[1] != 20 || pages[2] != 30 {
		t.Fatalf("pages = %v", pages)
	}
	objs := lt.ObjXObjs(1)
	if len(objs) != 2 || objs[0].Page != 10 || objs[1].Page != 30 {
		t.Fatalf("objs = %v", objs)
	}
}

func TestLockTabOpsCounting(t *testing.T) {
	lt := NewLockTab()
	lt.GrantObjX(1, 5, ObjID{Page: 1, Slot: 0})
	lt.GrantPageX(1, 5, 2)
	if ops := lt.TakeOps(); ops != 2 {
		t.Fatalf("ops = %d, want 2", ops)
	}
	if ops := lt.TakeOps(); ops != 0 {
		t.Fatalf("ops after take = %d, want 0", ops)
	}
}

func TestLockTabReleaseUnknownTxn(t *testing.T) {
	lt := NewLockTab()
	if pages := lt.ReleaseAll(42); pages != nil {
		t.Fatalf("release of unknown txn returned %v", pages)
	}
}

// ---- The reference lock table ----
//
// naiveLockTab is the lock table written the obvious way: a map of page
// entries, each with a map of object locks by slot, and two maps per
// transaction. LockTab answers the same questions from dense page entries
// and slot-sorted lists; TestLockTabMatchesNaiveModel holds the two to
// identical answers, step by step.

type naivePageLocks struct {
	PageX TxnID
	ObjX  map[uint16]TxnID
}

type naiveTxnLocks struct {
	PageX map[PageID]bool
	ObjX  map[ObjID]bool
}

type naiveLockTab struct {
	pages map[PageID]*naivePageLocks
	txns  map[TxnID]*naiveTxnLocks
	Ops   int64
}

func newNaiveLockTab() *naiveLockTab {
	return &naiveLockTab{pages: map[PageID]*naivePageLocks{}, txns: map[TxnID]*naiveTxnLocks{}}
}

func (lt *naiveLockTab) page(p PageID) *naivePageLocks {
	pl := lt.pages[p]
	if pl == nil {
		pl = &naivePageLocks{PageX: NoTxn, ObjX: map[uint16]TxnID{}}
		lt.pages[p] = pl
	}
	return pl
}

func (lt *naiveLockTab) txn(t TxnID) *naiveTxnLocks {
	tl := lt.txns[t]
	if tl == nil {
		tl = &naiveTxnLocks{PageX: map[PageID]bool{}, ObjX: map[ObjID]bool{}}
		lt.txns[t] = tl
	}
	return tl
}

func (lt *naiveLockTab) PageXHolder(p PageID) TxnID {
	if pl := lt.pages[p]; pl != nil {
		return pl.PageX
	}
	return NoTxn
}

func (lt *naiveLockTab) ObjXHolder(o ObjID) TxnID {
	if pl := lt.pages[o.Page]; pl != nil {
		return pl.ObjX[o.Slot]
	}
	return NoTxn
}

func (lt *naiveLockTab) ObjXCount(p PageID, except TxnID) int {
	n := 0
	if pl := lt.pages[p]; pl != nil {
		for _, t := range pl.ObjX {
			if t != except {
				n++
			}
		}
	}
	return n
}

func (lt *naiveLockTab) ObjXSlots(p PageID, except TxnID) []uint16 {
	pl := lt.pages[p]
	if pl == nil {
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

func (lt *naiveLockTab) GrantPageX(t TxnID, p PageID) {
	pl := lt.page(p)
	for s := range pl.ObjX {
		delete(pl.ObjX, s)
		delete(lt.txn(t).ObjX, ObjID{Page: p, Slot: s})
		lt.Ops++
	}
	pl.PageX = t
	lt.txn(t).PageX[p] = true
	lt.Ops++
}

func (lt *naiveLockTab) GrantObjX(t TxnID, o ObjID) {
	lt.page(o.Page).ObjX[o.Slot] = t
	lt.txn(t).ObjX[o] = true
	lt.Ops++
}

func (lt *naiveLockTab) Deescalate(t TxnID, p PageID, objs []ObjID) {
	pl, tl := lt.pages[p], lt.txns[t]
	pl.PageX = NoTxn
	delete(tl.PageX, p)
	lt.Ops++
	for _, o := range objs {
		pl.ObjX[o.Slot] = t
		tl.ObjX[o] = true
		lt.Ops++
	}
}

func (lt *naiveLockTab) HoldsPageX(t TxnID, p PageID) bool {
	tl := lt.txns[t]
	return tl != nil && tl.PageX[p]
}

func (lt *naiveLockTab) HoldsObjX(t TxnID, o ObjID) bool {
	tl := lt.txns[t]
	return tl != nil && tl.ObjX[o]
}

func (lt *naiveLockTab) TxnPages(t TxnID) []PageID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	seen := map[PageID]bool{}
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

func (lt *naiveLockTab) ObjXObjs(t TxnID) []ObjID {
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

func (lt *naiveLockTab) ObjXCountOnPage(t TxnID, p PageID) int {
	n := 0
	if tl := lt.txns[t]; tl != nil {
		for o := range tl.ObjX {
			if o.Page == p {
				n++
			}
		}
	}
	return n
}

func (lt *naiveLockTab) ReleaseAll(t TxnID) []PageID {
	tl := lt.txns[t]
	if tl == nil {
		return nil
	}
	pages := lt.TxnPages(t)
	for p := range tl.PageX {
		lt.pages[p].PageX = NoTxn
		lt.maybeFree(p)
	}
	for o := range tl.ObjX {
		delete(lt.pages[o.Page].ObjX, o.Slot)
		lt.maybeFree(o.Page)
	}
	delete(lt.txns, t)
	return pages
}

func (lt *naiveLockTab) maybeFree(p PageID) {
	if pl := lt.pages[p]; pl.PageX == NoTxn && len(pl.ObjX) == 0 {
		delete(lt.pages, p)
	}
}

func (lt *naiveLockTab) LockCount(t TxnID) int {
	tl := lt.txns[t]
	if tl == nil {
		return 0
	}
	return len(tl.PageX) + len(tl.ObjX)
}

func (lt *naiveLockTab) Empty() bool { return len(lt.pages) == 0 }

// TestLockTabMatchesNaiveModel drives LockTab and naiveLockTab through the
// same seeded random sequences of grants, de-escalations and releases —
// only steps the engine could take, so neither panics — and compares every
// query after every step. De-escalation always names at least one object,
// as the engine's does.
func TestLockTabMatchesNaiveModel(t *testing.T) {
	const pages, slots, txns = 6, 5, 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lt, nv := NewLockTab(), newNaiveLockTab()
		next := TxnID(1)
		live := []TxnID{}
		pick := func() TxnID {
			if len(live) < txns && (len(live) == 0 || rng.Intn(3) == 0) {
				live = append(live, next)
				next++
			}
			return live[rng.Intn(len(live))]
		}
		// canPageX: no foreign page lock, no foreign object lock on p.
		canPageX := func(tx TxnID, p PageID) bool {
			if h := nv.PageXHolder(p); h != NoTxn && h != tx {
				return false
			}
			return nv.ObjXCount(p, tx) == 0
		}
		for step := 0; step < 300; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 3:
				tx, p := pick(), PageID(rng.Intn(pages))
				if !canPageX(tx, p) {
					continue
				}
				op = fmt.Sprintf("GrantPageX(%d, %d)", tx, p)
				lt.GrantPageX(tx, 1, p)
				nv.GrantPageX(tx, p)
			case r < 7:
				tx, o := pick(), ObjID{Page: PageID(rng.Intn(pages)), Slot: uint16(rng.Intn(slots))}
				if h := nv.PageXHolder(o.Page); h != NoTxn && h != tx {
					continue
				}
				if h := nv.ObjXHolder(o); h != NoTxn && h != tx {
					continue
				}
				op = fmt.Sprintf("GrantObjX(%d, %v)", tx, o)
				lt.GrantObjX(tx, 1, o)
				nv.GrantObjX(tx, o)
			case r < 8:
				p := PageID(rng.Intn(pages))
				tx := nv.PageXHolder(p)
				if tx == NoTxn {
					continue
				}
				objs := make([]ObjID, 1+rng.Intn(3))
				for i := range objs {
					objs[i] = ObjID{Page: p, Slot: uint16(rng.Intn(slots))}
				}
				op = fmt.Sprintf("Deescalate(%d, %d, %v)", tx, p, objs)
				lt.Deescalate(tx, p, objs)
				nv.Deescalate(tx, p, objs)
			default:
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				tx := live[i]
				live = append(live[:i], live[i+1:]...)
				op = fmt.Sprintf("ReleaseAll(%d)", tx)
				got, want := lt.ReleaseAll(tx), nv.ReleaseAll(tx)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: returned %v, want %v", seed, step, op, got, want)
				}
			}
			compareLockTabs(t, fmt.Sprintf("seed %d step %d after %s", seed, step, op), lt, nv, next, pages, slots)
		}
	}
}

func compareLockTabs(t *testing.T, at string, lt *LockTab, nv *naiveLockTab, txns TxnID, pages, slots int) {
	t.Helper()
	// check names the query only when it fails: t.Helper and Sprintf on
	// every one of the ~500 queries a step would dominate the test.
	check := func(got, want any, query string, args ...any) {
		if !reflect.DeepEqual(got, want) {
			t.Helper()
			t.Fatalf("%s: %s = %v, want %v", at, fmt.Sprintf(query, args...), got, want)
		}
	}
	check(lt.Empty(), nv.Empty(), "Empty")
	check(lt.Ops, nv.Ops, "Ops")
	// One page and one transaction past the ones in use: absent entries
	// must answer like empty ones.
	for p := PageID(-1); int(p) <= pages; p++ {
		check(lt.PageXHolder(p), nv.PageXHolder(p), "PageXHolder(%d)", p)
		for s := 0; s <= slots; s++ {
			o := ObjID{Page: p, Slot: uint16(s)}
			check(lt.ObjXHolder(o), nv.ObjXHolder(o), "ObjXHolder(%v)", o)
		}
		for tx := NoTxn; tx <= txns; tx++ {
			check(lt.ObjXCount(p, tx), nv.ObjXCount(p, tx), "ObjXCount(%d, %d)", p, tx)
			check(lt.ObjXSlots(p, tx), nv.ObjXSlots(p, tx), "ObjXSlots(%d, %d)", p, tx)
			check(lt.HoldsPageX(tx, p), nv.HoldsPageX(tx, p), "HoldsPageX(%d, %d)", tx, p)
			check(lt.ObjXCountOnPage(tx, p), nv.ObjXCountOnPage(tx, p), "ObjXCountOnPage(%d, %d)", tx, p)
			for s := 0; s <= slots; s++ {
				o := ObjID{Page: p, Slot: uint16(s)}
				check(lt.HoldsObjX(tx, o), nv.HoldsObjX(tx, o), "HoldsObjX(%d, %v)", tx, o)
			}
		}
	}
	for tx := NoTxn; tx <= txns; tx++ {
		check(lt.LockCount(tx), nv.LockCount(tx), "LockCount(%d)", tx)
		check(lt.TxnPages(tx), nv.TxnPages(tx), "TxnPages(%d)", tx)
		check(lt.ObjXObjs(tx), nv.ObjXObjs(tx), "ObjXObjs(%d)", tx)
	}
}

// A warm grant/release cycle — the bench probe's eight object locks and
// their release — allocates nothing.
func TestLockTabWarmCycleAllocs(t *testing.T) {
	lt := NewLockTab()
	i := 0
	cycle := func() {
		i++
		tx := TxnID(i)
		for s := uint16(0); s < 8; s++ {
			lt.GrantObjX(tx, 1, ObjID{Page: PageID(i % 64), Slot: s})
		}
		lt.ReleaseAll(tx)
	}
	for i < 64 {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("warm grant/release cycle: %v allocs, want 0", n)
	}
}
