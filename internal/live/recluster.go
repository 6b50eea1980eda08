package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// recluster is the online-reclustering planner: a background goroutine
// that consumes the heat collector's false-sharing evidence and migrates
// objects off suspect pages into (near-)private spare pages, as small
// system transactions through the ordinary client API. Each migration
// rides the full commit machinery — engine locks like any writer, a WAL
// record (with the relocations attached), callback rounds invalidating
// client copies — so it needs no new concurrency control; it is just a
// very polite client that happens to be allowed to write spare pages and
// to attach relocation entries to its commits.
type recluster struct {
	s   *Server
	cli *Client

	// mu serializes rounds: the ticker loop and ReclusterNow (tests, the
	// /reclusterz admin trigger) must not interleave migrations.
	mu  sync.Mutex
	cur spareCursor
}

// reclusterMaxMoves caps object migrations per planner round — the
// pacing that keeps migration a background trickle.
const reclusterMaxMoves = 64

// spareCursor allocates destination slots in the spare region. Each
// writer gets its own open page (near-private placement: the point of the
// split is that no two disjoint writers share a destination page); a new
// page comes off the never-used cursor when a writer's open page fills.
// Retired spare slots are not reused — the region is sized for the
// store's lifetime of planned moves, and exhaustion just stops planning.
type spareCursor struct {
	next core.PageID // next never-used spare page
	phys core.PageID // one past the last spare page
	opp  int
	open map[int32]*openSparePage
}

type openSparePage struct {
	page core.PageID
	next uint16
}

func (c *spareCursor) alloc(writer int32) (core.ObjID, bool) {
	op := c.open[writer]
	if op == nil || int(op.next) >= c.opp {
		if c.next >= c.phys {
			return core.ObjID{}, false
		}
		op = &openSparePage{page: c.next}
		c.next++
		c.open[writer] = op
	}
	o := core.ObjID{Page: op.page, Slot: op.next}
	op.next++
	return o, true
}

// startRecluster attaches the planner's in-process session and starts the
// background loop. Called from OpenServer once the engine is up; the
// server must have a relocation table with a spare region.
func (s *Server) startRecluster() error {
	cliConn, srvConn := Pipe()
	if _, err := s.attachInternal(srvConn); err != nil {
		return err
	}
	cli, err := Connect(cliConn, ClientOptions{
		CachePages:     8,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	r := &recluster{
		s:   s,
		cli: cli,
		cur: spareCursor{
			next: core.PageID(s.userPages),
			phys: core.PageID(s.store.NumPages()),
			opp:  s.store.ObjsPerPage(),
			open: make(map[int32]*openSparePage),
		},
	}
	// Restart cursor: never re-allocate a spare slot some earlier
	// incarnation already moved an object into. Partially-filled open
	// pages are abandoned (their writers are forgotten across restarts
	// anyway); only never-used pages are handed out.
	if top, ok := s.relocs.view().maxSpareSlot(core.PageID(s.userPages)); ok && top.Page >= r.cur.next {
		r.cur.next = top.Page + 1
	}
	s.recl = r
	// Transient failures (deadlock victim, spare exhaustion) just wait for
	// the next tick — the backoff IS the pacing period. A terminal one
	// means the session is already gone (the server closed the pipe, or a
	// timed-out request tore it down), so there is nothing left to close.
	s.background(s.opts.reclusterEvery, func() bool {
		_, err := r.runRound()
		return terminal(err)
	})
	return nil
}

// terminal reports whether the planner's session is unusable for good.
func terminal(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrDisconnected) ||
		errors.Is(err, ErrTimeout)
}

// ReclusterNow runs one synchronous planning + migration round and
// returns the number of objects moved. Tests and the /reclusterz admin
// endpoint use it for determinism; the background loop calls the same
// round off its ticker.
func (s *Server) ReclusterNow() (int, error) {
	s.mu.Lock()
	r := s.recl
	closed := s.closed
	s.mu.Unlock()
	if r == nil {
		return 0, fmt.Errorf("live: reclustering not enabled")
	}
	if closed {
		return 0, fmt.Errorf("live: server closed")
	}
	return r.runRound()
}

// runRound snapshots the heat evidence, plans a bounded batch of moves,
// and migrates group by group. A group that aborts (deadlock victim — a
// migration is a system transaction, so it loses every cycle it is on) is
// skipped this round; its page stays a suspect and is replanned later.
func (r *recluster) runRound() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.s

	sn := s.heat.Snapshot()
	view := s.relocs.view()
	groups := obs.PlanMoves(sn, obs.PlanOptions{
		MaxMoves:    reclusterMaxMoves,
		UserPages:   int32(s.userPages),
		ObjsPerPage: s.store.ObjsPerPage(),
		// Already-migrated slots must not eat the round's budget: their heat
		// evidence outlives the move, and replanning them would stall paced
		// rounds before partially-split pages finish.
		Exclude: func(page int32, slot uint16) bool {
			_, gone := view.lookup(core.ObjID{Page: core.PageID(page), Slot: slot})
			return gone
		},
	})
	if len(groups) == 0 {
		return 0, nil
	}

	moved := 0
	for _, g := range groups {
		n, err := r.migrateGroup(g)
		moved += n
		if terminal(err) {
			return moved, err
		}
	}
	return moved, nil
}

// migrateGroup moves one writer's exclusive slots off one suspect page:
//
//  1. run one system transaction that rewrites each source object in
//     place (taking its write lock and driving the normal callback
//     invalidation) and writes the value to its spare destination — user
//     requests for a source wait behind that lock like behind any writer's,
//  2. commit with the relocation entries attached: the server installs
//     the images, publishes the relocations, and redirects the requests
//     queued for the sources — all under the engine lock (see
//     appendAndInstall).
//
// Any failure aborts the transaction; the objects stay where they were and
// the page is replanned from fresher heat.
func (r *recluster) migrateGroup(g obs.MoveGroup) (int, error) {
	s := r.s
	view := s.relocs.view()
	opp := s.store.ObjsPerPage()

	type move struct{ from, to core.ObjID }
	var moves []move
	for _, slot := range g.Slots {
		if int(slot) >= opp {
			continue
		}
		from := core.ObjID{Page: core.PageID(g.Page), Slot: slot}
		if _, gone := view.lookup(from); gone {
			continue // already migrated; stale evidence
		}
		to, ok := r.cur.alloc(g.Writer)
		if !ok {
			break // spare region exhausted; move what we can
		}
		moves = append(moves, move{from, to})
	}
	if len(moves) == 0 {
		return 0, nil
	}

	tx, err := r.cli.Begin()
	if err != nil {
		return 0, err
	}
	abort := func(err error) (int, error) {
		tx.Abort()
		return 0, err
	}
	relocs := make([]core.RelocEntry, 0, len(moves))
	for _, mv := range moves {
		// Rewriting the source in place takes its write lock (calling back
		// every cached copy) and puts the source address in the commit's
		// write set; the destination write carries the bytes to their new
		// home.
		val, err := tx.Read(mv.from)
		if err != nil {
			return abort(err)
		}
		// val is a view of the source, safe to write from: the read lock
		// keeps its bytes fixed, and writing it back is a self-copy.
		if err := tx.Write(mv.from, val); err != nil {
			return abort(err)
		}
		if err := tx.Write(mv.to, val); err != nil {
			return abort(err)
		}
		relocs = append(relocs, core.RelocEntry{From: mv.from, To: mv.to})
	}
	tx.relocs = relocs
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return len(moves), nil
}

// ReclusterStatus is the admin view of the reclustering subsystem.
type ReclusterStatus struct {
	Enabled    bool              `json:"enabled"`
	UserPages  int               `json:"user_pages"`
	SparePages int               `json:"spare_pages"`
	Relocated  int               `json:"relocated"`
	Entries    []core.RelocEntry `json:"entries,omitempty"`
}

// ReclusterStatus reports the relocation table and geometry split.
// withEntries includes the full table (admin views cap it themselves).
func (s *Server) ReclusterStatus(withEntries bool) ReclusterStatus {
	st := ReclusterStatus{UserPages: s.userPages}
	if s.relocs == nil {
		return st
	}
	st.Enabled = s.recl != nil
	view := s.relocs.view()
	st.SparePages = int(s.relocs.spare)
	st.Relocated = len(view.m)
	if withEntries {
		st.Entries = view.entries()
	}
	return st
}
