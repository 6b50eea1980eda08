package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCopyTabPageBasics(t *testing.T) {
	ct := NewCopyTab(false)
	ct.RegisterPage(3, 10)
	ct.RegisterPage(1, 10)
	ct.RegisterPage(2, 10)
	ct.RegisterPage(1, 10) // duplicate: no-op
	if !ct.HasPageCopy(1, 10) || ct.HasPageCopy(4, 10) {
		t.Fatal("HasPageCopy wrong")
	}
	h := ct.PageHolders(10, 2)
	if len(h) != 2 || h[0] != 1 || h[1] != 3 {
		t.Fatalf("holders = %v, want [1 3]", h)
	}
	ct.UnregisterPage(1, 10, NoEpoch)
	ct.UnregisterPage(1, 10, NoEpoch) // idempotent
	h = ct.PageHolders(10, NoClient)
	if len(h) != 2 || h[0] != 2 || h[1] != 3 {
		t.Fatalf("holders = %v, want [2 3]", h)
	}
	if ct.CopyCount() != 2 {
		t.Fatalf("count = %d", ct.CopyCount())
	}
	// Ops: 4 registers (the duplicate re-registers, bumping its epoch) +
	// 1 unregister.
	if ops := ct.TakeOps(); ops != 5 {
		t.Fatalf("ops = %d, want 5", ops)
	}
}

func TestCopyTabObjBasics(t *testing.T) {
	ct := NewCopyTab(true)
	o := ObjID{Page: 5, Slot: 7}
	ct.RegisterObj(9, o)
	ct.RegisterObj(4, o)
	if h := ct.ObjHolders(o, 9); len(h) != 1 || h[0] != 4 {
		t.Fatalf("holders = %v", h)
	}
	ct.UnregisterObj(9, o, NoEpoch)
	ct.UnregisterObj(4, o, NoEpoch)
	if ct.CopyCount() != 0 {
		t.Fatal("copies remain")
	}
	if h := ct.ObjHolders(o, NoClient); h != nil {
		t.Fatalf("holders after removal = %v", h)
	}
}

func TestCopyTabGranularityPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	pageTab := NewCopyTab(false)
	objTab := NewCopyTab(true)
	expectPanic("RegisterObj on page tab", func() { pageTab.RegisterObj(1, ObjID{}) })
	expectPanic("RegisterPage on obj tab", func() { objTab.RegisterPage(1, 0) })
	expectPanic("ObjHolders on page tab", func() { pageTab.ObjHolders(ObjID{}, 0) })
	expectPanic("PageHolders on obj tab", func() { objTab.PageHolders(0, 0) })
}

// Property: a clientSet built by random add/remove always stays sorted and
// duplicate-free, and membership matches a reference map.
func TestCopyTabClientSetProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var s clientSet
		var epoch int64
		ref := make(map[ClientID]bool)
		for _, op := range ops {
			c := ClientID(op % 16)
			if op&0x80 != 0 {
				epoch++
				s = s.add(c, epoch)
				ref[c] = true
			} else {
				s, _ = s.remove(c, NoEpoch)
				delete(ref, c)
			}
		}
		if len(s) != len(ref) {
			return false
		}
		for i, e := range s {
			if !ref[e.c] {
				return false
			}
			if i > 0 && s[i-1].c >= e.c {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// A warm register / holders / unregister cycle — the bench probe's four
// copies of one page — allocates nothing: an emptied set keeps its array.
func TestCopyTabWarmCycleAllocs(t *testing.T) {
	ct := NewCopyTab(false)
	i := 0
	cycle := func() {
		i++
		p := PageID(i % 1024)
		for c := ClientID(1); c <= 4; c++ {
			ct.RegisterPage(c, p)
		}
		if h := ct.PageHolders(p, 1); len(h) != 3 || h[0] != 2 {
			t.Fatalf("holders of %d = %v", p, h)
		}
		for c := ClientID(1); c <= 4; c++ {
			ct.UnregisterPage(c, p, NoEpoch)
		}
	}
	for i < 1024 {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("warm copy-table cycle: %v allocs, want 0", n)
	}
}
