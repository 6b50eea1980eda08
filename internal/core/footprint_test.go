package core

import "testing"

// footprintTxn runs one HOTCOLD-shaped transaction against a warm cache
// of `pages` pages: 30 pages x 4 object reads, 12 of the objects updated
// under page grants, then commit build and commit ack. It is the whole
// client-side protocol cost of a transaction that never misses.
func footprintTxn(cs *ClientState, i, pages int) *Msg {
	cs.Begin(TxnID(i + 1))
	for k := 0; k < 30; k++ {
		p := PageID((i*7 + k*10) % pages)
		for s := uint16(0); s < 4; s++ {
			o := ObjID{Page: p, Slot: (s*5 + uint16(k)) % 20}
			if cs.NeedForRead(o) != nil {
				panic("footprint bench: warm read missed")
			}
			cs.RecordRead(o)
			if s == 0 && k < 12 {
				cs.StartWrite(o)
				if m := cs.NeedForWrite(o); m != nil {
					cs.OnReply(&Msg{Kind: MGrant, Grant: GrantPage, Page: p, Obj: o})
				}
				cs.RecordWrite(o)
			}
		}
	}
	m := cs.BuildCommit()
	cs.OnCommitAck()
	return m
}

var footprintSink *Msg

// BenchmarkClientTxnFootprint: a 312-page cache (the live default), so a
// cost that scales with the cache rather than with the transaction shows.
func BenchmarkClientTxnFootprint(b *testing.B) {
	const pages = 312
	cs := NewClientState(1, PSAA, pages)
	for p := PageID(0); p < pages; p++ {
		cs.Cache.InstallPage(p, nil)
	}
	footprintTxn(cs, 0, pages) // size the reused per-transaction state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		footprintSink = footprintTxn(cs, i+1, pages)
	}
}

// TestReadOnlyTxnAllocatesNothing pins the steady state of the hit path:
// Begin, 120 recorded reads and the commit ack reuse what the previous
// transaction left behind.
func TestReadOnlyTxnAllocatesNothing(t *testing.T) {
	const pages = 312
	for _, proto := range []Protocol{PSAA, OS} {
		cs := NewClientState(1, proto, pages*20)
		for p := PageID(0); p < pages; p++ {
			if proto != OS {
				cs.Cache.InstallPage(p, nil)
				continue
			}
			for s := uint16(0); s < 20; s += 5 {
				cs.Cache.InstallObj(ObjID{Page: p, Slot: s})
			}
		}
		i := 0
		txn := func() {
			i++
			cs.Begin(TxnID(i))
			for k := 0; k < 30; k++ {
				for s := uint16(0); s < 4; s++ {
					o := ObjID{Page: PageID((i*7 + k*10) % pages), Slot: s * 5}
					if cs.NeedForRead(o) != nil {
						t.Fatalf("%v: warm read of %v missed", proto, o)
					}
					cs.RecordRead(o)
				}
			}
			if acks := cs.OnCommitAck(); len(acks) != 0 {
				t.Fatalf("%v: unexpected acks", proto)
			}
		}
		txn() // sizes the pinned list
		if n := testing.AllocsPerRun(200, txn); n != 0 {
			t.Errorf("%v: a read-only transaction allocates %v times, want 0", proto, n)
		}
	}
}
