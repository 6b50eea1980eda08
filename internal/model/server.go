package model

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// server drives the core.ServerEngine with simulated resources: every
// incoming message is handled by the protocol engine, the lock/copy/merge
// work is charged to the server CPU, and the engine's outgoing messages
// are dispatched (fetching pages from the buffer pool for data-carrying
// replies).
type server struct {
	sys   *system
	eng   *core.ServerEngine
	cpu   *sim.CPU
	disks []*sim.Disk
	buf   *serverBuf

	// debugHook, when set (tests only), runs after every engine event
	// with the message just handled.
	debugHook func(m *core.Msg)
}

// handle processes one arrived client message (receive CPU has already
// been charged by the transport).
func (s *server) handle(m core.Msg) {
	// Commit installs: updated pages arrive with the commit message and are
	// installed into the buffer pool (dirty); object-granularity commits
	// (OS) require the home page to be resident first. Installation is
	// asynchronous with respect to lock release, as with a WAL no-force
	// scheme durability comes from the log, not the data pages.
	if m.Kind == core.MCommitReq {
		for _, p := range m.Pages {
			s.buf.install(p)
		}
		for _, o := range m.Objs {
			s.buf.installObj(o.Page)
		}
	}

	if !s.eng.Fits(&m, s.sys.cfg.ObjSize()) || !s.eng.Admit(&m) { // the clients are correct
		panic("model: the engine refuses a simulated client's " + m.Kind.String())
	}
	outs := s.eng.Handle(&m)
	msgs := make([]core.Msg, len(outs))
	copy(msgs, outs)
	if s.sys.oracle != nil {
		// Snapshot the versions each data reply logically carries at the
		// moment the engine emitted it.
		for i := range msgs {
			s.sys.oracle.snapshotReply(&msgs[i])
		}
	}
	if s.debugHook != nil {
		s.debugHook(&m)
	}

	// Charge the bookkeeping the engine just performed as one system CPU
	// request. The responses are enqueued on the per-client delivery
	// queues immediately — their wire order must equal the engine's
	// emission order — and their send-CPU jobs line up behind this cost
	// job in the server CPU's FIFO, so the timing effect is preserved.
	cost := float64(s.eng.Locks.TakeOps())*s.sys.cfg.LockInst +
		float64(s.eng.Copies.TakeOps())*s.sys.cfg.RegisterCopyInst +
		float64(s.eng.TakeMergeObjs())*s.sys.cfg.CopyMergeInst
	if cost > 0 {
		s.cpu.UseSystem(cost, nil)
	}
	s.dispatch(msgs)
}

// dispatch hands the engine's outgoing messages to the per-client ordered
// delivery queues (which perform the buffer fetches for data replies).
func (s *server) dispatch(msgs []core.Msg) {
	for i := range msgs {
		s.sys.toClient(msgs[i])
	}
}
