package core

import "testing"

// Disconnect cleanup tests: a vanished client must not strand locks,
// rounds, or copies (live-system hygiene; see ServerEngine.Disconnect).

func TestDisconnectReleasesLocksAndUnblocks(t *testing.T) {
	h := newHarness(t, PS, 2, 10, 20, 8)
	h.begin(1)
	h.mustDone(1, h.read(1, o(0, 0)))
	h.mustDone(1, h.write(1, o(0, 0))) // client 1 holds page X

	h.begin(2)
	if st := h.read(2, o(0, 5)); st != opBlocked {
		t.Fatalf("read should block on page X, got %v", st)
	}

	// Client 1 vanishes; its transaction aborts server-side and client 2's
	// read is granted by the cleanup.
	outs := h.se.Disconnect(1)
	for _, m := range outs {
		m := m
		h.msgs[m.Kind]++
		h.queue = append(h.queue, m)
	}
	h.pump()
	if !h.hasReply(2) {
		t.Fatal("disconnect did not unblock the waiting read")
	}
	h.mustDone(2, h.resume(2))
	h.commit(2)
	if !h.se.Quiesced() {
		t.Fatalf("state leaked after disconnect:\n%s", h.se.DumpState())
	}
}

func TestDisconnectAnswersPendingCallbacks(t *testing.T) {
	h := newHarness(t, PS, 3, 10, 20, 8)
	// Client 3 caches page 0 and stays idle-but-connected with an unsent
	// ack: simulate by making its transaction busy.
	h.begin(3)
	h.mustDone(3, h.read(3, o(0, 7)))

	h.begin(1)
	h.mustDone(1, h.read(1, o(0, 0)))
	if st := h.write(1, o(0, 0)); st != opBlocked {
		t.Fatal("write should wait for client 3's busy callback")
	}

	// Client 3's machine dies without ever answering.
	outs := h.se.Disconnect(3)
	for _, m := range outs {
		m := m
		h.msgs[m.Kind]++
		h.queue = append(h.queue, m)
	}
	h.pump()
	if !h.hasReply(1) {
		t.Fatal("disconnect did not complete the callback round")
	}
	h.mustDone(1, h.resume(1))
	h.commit(1)
	if !h.se.Quiesced() {
		t.Fatal("server not quiesced")
	}
}

func TestDisconnectDropsCopies(t *testing.T) {
	for _, proto := range []Protocol{PS, PSOO, OS} {
		t.Run(proto.String(), func(t *testing.T) {
			cap := 8
			if proto == OS {
				cap = 160
			}
			h := newHarness(t, proto, 2, 10, 20, cap)
			h.begin(2)
			h.mustDone(2, h.read(2, o(0, 1)))
			h.commit(2)
			if h.se.Copies.CopyCount() == 0 {
				t.Fatal("no copies registered")
			}
			h.se.Disconnect(2)
			if h.se.Copies.CopyCount() != 0 {
				t.Fatalf("%d copies leaked after disconnect", h.se.Copies.CopyCount())
			}
			// A write by the surviving client needs no callbacks now.
			h.begin(1)
			h.mustDone(1, h.write(1, o(0, 1)))
			if h.msgs[MCallback] != 0 {
				t.Fatalf("callback sent to a disconnected client")
			}
			h.commit(1)
		})
	}
}

// TestCancelledRoundGrantCarriesData replays DESIGN.md §8 race 7 with no
// goroutines. Client 2 caches page 7 and is idle. Client 1's write of
// (7,1) puts a callback to client 2 in flight; client 2's write of (7,2),
// sent without asking for data, queues behind it. Client 1 disconnects,
// which cancels its round and grants client 2's request while the
// callback is still on its way. Client 2 then handles the callback first
// (it may purge the page) and the grant second, as its one link delivers
// them: the grant must carry the data the callback may have taken away.
func TestCancelledRoundGrantCarriesData(t *testing.T) {
	for _, proto := range AllProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			cap := 8
			if proto == OS {
				cap = 8 * 20
			}
			h := newHarness(t, proto, 2, 10, 20, cap)
			const owner, c = ClientID(1), ClientID(2)
			h.begin(c)
			h.mustDone(c, h.read(c, o(7, 1)))
			h.mustDone(c, h.read(c, o(7, 2)))
			h.commit(c)

			// toC is client 2's link: messages the server sent it, not yet
			// delivered, in order.
			var toC []Msg
			send := func(m *Msg) {
				m.DroppedPages, m.DroppedObjs = h.cs(m.From).Cache.TakeDropped()
				for _, out := range h.se.Handle(m) {
					if out.To != c {
						t.Fatalf("unexpected %v to client %d", out.Kind, out.To)
					}
					toC = append(toC, out)
				}
			}
			request := func(from ClientID, obj ObjID) {
				cs := h.cs(from)
				cs.StartWrite(obj)
				m := cs.NeedForWrite(obj)
				h.nextReq++
				m.Req = h.nextReq
				send(m)
			}

			h.begin(owner)
			request(owner, o(7, 1))
			h.begin(c)
			request(c, o(7, 2))
			for _, out := range h.se.Disconnect(owner) {
				if out.To != c {
					t.Fatalf("unexpected %v to client %d", out.Kind, out.To)
				}
				toC = append(toC, out)
			}

			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("client 2 panicked: %v", r)
				}
			}()
			for len(toC) > 0 {
				m := toC[0]
				toC = toC[1:]
				if m.Kind == MCallback {
					reply, _ := h.cs(c).HandleCallback(&m)
					send(reply)
					continue
				}
				h.replies[c] = &m
				h.op[c] = &pendingOp{obj: o(7, 2), isWrite: true}
				h.mustDone(c, h.applyReply(c))
			}
			if h.cs(c).NeedForRead(o(7, 2)) != nil {
				t.Fatal("client 2 wrote (7,2) without its data")
			}
			h.commit(c)
			if !h.se.Quiesced() {
				t.Fatalf("server not quiesced:\n%s", h.se.DumpState())
			}
		})
	}
}
