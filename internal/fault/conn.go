package fault

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Conn is the transport surface faults are injected into. It is
// structurally identical to live.Conn so a *FaultConn satisfies both.
type Conn interface {
	Send(m *core.Msg) error
	Recv() (*core.Msg, error)
	Close() error
}

// ErrKilled is returned by Send/Recv after an injected connection kill.
var ErrKilled = errors.New("fault: connection killed")

// Latency is an injected delay: Base plus a uniform draw in [0, Jitter).
type Latency struct {
	Base   time.Duration
	Jitter time.Duration
}

// ConnPlan is a seeded, per-direction fault plan for one connection. The
// zero plan injects nothing.
type ConnPlan struct {
	// Seed drives every random draw (jitter, kill probability); equal
	// seeds replay the same fault schedule against the same traffic.
	Seed int64

	// SendLatency/RecvLatency delay each message in that direction.
	SendLatency Latency
	RecvLatency Latency

	// One-shot kills: close the connection on the Nth outbound (inbound)
	// message; that message is lost. 0 disables.
	KillAfterSends int64
	KillAfterRecvs int64
	// KillAfterBytes kills once the summed Data payload of messages in
	// both directions exceeds the budget. 0 disables.
	KillAfterBytes int64

	// KillProb is a recurring fault: each message independently kills the
	// connection with this probability.
	KillProb float64
}

// FaultConn wraps a Conn and applies a ConnPlan. It additionally exposes a
// Partition toggle: while partitioned, messages in both directions are
// silently dropped (the connection stays open, mimicking a network that
// eats traffic rather than resetting).
type FaultConn struct {
	inner Conn
	plan  ConnPlan

	rngMu sync.Mutex
	rng   *rand.Rand

	sends, recvs, bytes atomic.Int64
	partitioned         atomic.Bool
	killed              atomic.Bool
}

// WrapConn applies plan to inner.
func WrapConn(inner Conn, plan ConnPlan) *FaultConn {
	return &FaultConn{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Partition toggles the partition: true drops all traffic until healed.
func (f *FaultConn) Partition(on bool) { f.partitioned.Store(on) }

// Killed reports whether an injected kill has fired.
func (f *FaultConn) Killed() bool { return f.killed.Load() }

// Kill closes the connection immediately (a scripted one-shot kill).
func (f *FaultConn) Kill() {
	if f.killed.CompareAndSwap(false, true) {
		f.inner.Close()
	}
}

// delayAndRoll draws the latency sleep and the kill roll under one rng
// acquisition, then sleeps outside the lock.
func (f *FaultConn) delayAndRoll(l Latency) (killRoll bool) {
	var d time.Duration
	f.rngMu.Lock()
	d = l.Base
	if l.Jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(l.Jitter)))
	}
	if f.plan.KillProb > 0 {
		killRoll = f.rng.Float64() < f.plan.KillProb
	}
	f.rngMu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return killRoll
}

// checkKill applies the message-count, byte-budget, and probabilistic kill
// rules for one message; it returns true if the connection just died.
func (f *FaultConn) checkKill(n int64, after int64, dataLen int, roll bool) bool {
	budget := f.plan.KillAfterBytes
	overBudget := budget > 0 && f.bytes.Add(int64(dataLen)) > budget
	if (after > 0 && n >= after) || overBudget || roll {
		f.Kill()
		return true
	}
	return false
}

func (f *FaultConn) Send(m *core.Msg) error {
	if f.killed.Load() {
		return ErrKilled
	}
	roll := f.delayAndRoll(f.plan.SendLatency)
	if f.checkKill(f.sends.Add(1), f.plan.KillAfterSends, len(m.Data), roll) {
		return ErrKilled
	}
	if f.partitioned.Load() {
		return nil // eaten by the network
	}
	return f.inner.Send(m)
}

func (f *FaultConn) Recv() (*core.Msg, error) {
	for {
		if f.killed.Load() {
			return nil, ErrKilled
		}
		m, err := f.inner.Recv()
		if err != nil {
			if f.killed.Load() {
				return nil, ErrKilled
			}
			return nil, err
		}
		roll := f.delayAndRoll(f.plan.RecvLatency)
		if f.checkKill(f.recvs.Add(1), f.plan.KillAfterRecvs, len(m.Data), roll) {
			return nil, ErrKilled
		}
		if f.partitioned.Load() {
			continue // eaten by the network
		}
		return m, nil
	}
}

func (f *FaultConn) Close() error {
	f.killed.Store(true)
	return f.inner.Close()
}
