package sim

import "fmt"

// Proc is a simulation process: a goroutine whose execution is interleaved
// deterministically with the event loop. At any moment at most one
// goroutine (the scheduler or exactly one process) is running.
//
// A process interacts with virtual time only through its blocking
// primitives (Hold, Park, Cond.Wait, Mailbox.Recv, and the resource
// methods that take a Proc).
type Proc struct {
	e        *Engine
	name     string
	resume   chan struct{}
	runFn    func() // cached p.run closure, reused by every Hold/Unpark
	unparkFn func() // cached p.Unpark closure for blocking resource calls
	parked   bool
	done     bool
}

// Go spawns a new process executing fn. The process starts at the current
// virtual time (via a zero-delay event).
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, name: name, resume: make(chan struct{})}
	p.runFn = p.run
	p.unparkFn = p.Unpark
	e.procs++
	go func() {
		<-p.resume // wait for first scheduling
		fn(p)
		p.done = true
		e.procs--
		e.yield <- struct{}{} // return control to scheduler
	}()
	e.At(0, p.runFn)
	return p
}

// run transfers control from the scheduler to the process until it blocks
// again or finishes.
func (p *Proc) run() {
	if p.done {
		panic("sim: resuming finished proc " + p.name)
	}
	p.parked = false
	p.resume <- struct{}{}
	<-p.e.yield
}

// block suspends the calling process and returns control to the event
// loop. It resumes when some event calls p.run().
func (p *Proc) block() {
	p.e.yield <- struct{}{}
	<-p.resume
}

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.e.now }

// Hold advances virtual time by d seconds for this process.
func (p *Proc) Hold(d float64) {
	p.e.At(d, p.runFn)
	p.block()
}

// Park suspends the process until Unpark is called on it.
func (p *Proc) Park() {
	if p.parked {
		panic("sim: double park of " + p.name)
	}
	p.parked = true
	p.block()
}

// Unpark schedules a parked process to resume at the current virtual time.
// It must be called from an event callback or another process, never from
// the parked process itself.
func (p *Proc) Unpark() {
	if !p.parked {
		panic("sim: unpark of non-parked proc " + p.name)
	}
	p.parked = false
	p.e.At(0, p.runFn)
}

// Cond is a virtual-time condition variable: a FIFO queue of parked
// processes.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process on the condition.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.parked = true
	p.block()
}

// Signal wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	p.Unpark()
	return true
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		p.Unpark()
	}
}

// Len returns the number of waiting processes.
func (c *Cond) Len() int { return len(c.waiters) }

// initialMailboxCap pre-sizes a mailbox's queue on first send.
const initialMailboxCap = 16

// Mailbox is an unbounded FIFO message queue that a single consumer
// process can block on. Multiple producers (events or other processes) may
// send. Dequeues advance a head index instead of shifting, so a busy
// mailbox settles into a reused backing array.
type Mailbox[T any] struct {
	queue  []T
	head   int
	waiter *Proc
}

// Send enqueues a value and wakes the receiver if it is blocked.
func (m *Mailbox[T]) Send(v T) {
	if m.queue == nil {
		m.queue = make([]T, 0, initialMailboxCap)
	} else if m.head > 0 && len(m.queue) == cap(m.queue) {
		// Compact consumed slots instead of growing.
		n := copy(m.queue, m.queue[m.head:])
		var zero T
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = zero
		}
		m.queue = m.queue[:n]
		m.head = 0
	}
	m.queue = append(m.queue, v)
	if m.waiter != nil {
		w := m.waiter
		m.waiter = nil
		w.Unpark()
	}
}

func (m *Mailbox[T]) pop() T {
	v := m.queue[m.head]
	var zero T
	m.queue[m.head] = zero
	m.head++
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	}
	return v
}

// Recv blocks the calling process until a value is available, then
// dequeues and returns it.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.Len() == 0 {
		if m.waiter != nil {
			panic(fmt.Sprintf("sim: mailbox already has waiter %s", m.waiter.name))
		}
		m.waiter = p
		p.parked = true
		p.block()
	}
	return m.pop()
}

// TryRecv dequeues a value without blocking; ok is false if empty.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	if m.Len() == 0 {
		return v, false
	}
	return m.pop(), true
}

// Len returns the number of queued values.
func (m *Mailbox[T]) Len() int { return len(m.queue) - m.head }
