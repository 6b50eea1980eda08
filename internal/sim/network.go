package sim

// Network models a local area network as a single FIFO server with a fixed
// bandwidth, as in the paper: "The simulator's Network Manager component
// is very simple, consisting of a FIFO server with a specified bandwidth,
// as protocol processing (i.e., CPU overhead) dominates the on-the-wire
// time for messages in modern local area networks."
//
// CPU costs for sending/receiving are NOT modelled here; callers charge
// them to the sender's and receiver's CPUs.
type Network struct {
	e           *Engine
	bytesPerSec float64
	busy        bool
	queue       []netMsg
	curSvc      float64 // service time of the message in service
	fireFn      func()  // cached completion closure

	// Stats.
	Msgs     int64
	Bytes    int64
	BusyTime float64
}

type netMsg struct {
	bytes int
	done  func()
}

// NewNetwork creates a network with the given bandwidth in megabits per
// second.
func NewNetwork(e *Engine, mbps float64) *Network {
	if mbps <= 0 {
		panic("sim: network bandwidth must be positive")
	}
	n := &Network{e: e, bytesPerSec: mbps * 1e6 / 8}
	n.fireFn = n.fire
	return n
}

// Transmit enqueues a message of the given size; done runs when the
// message has fully crossed the wire.
func (n *Network) Transmit(bytes int, done func()) {
	if bytes < 0 {
		panic("sim: negative message size")
	}
	n.queue = append(n.queue, netMsg{bytes: bytes, done: done})
	if !n.busy {
		n.busy = true
		n.serveNext()
	}
}

// serveNext schedules completion of the head message. Exactly one network
// completion event is outstanding at a time (FIFO single server).
func (n *Network) serveNext() {
	n.curSvc = float64(n.queue[0].bytes) / n.bytesPerSec
	n.e.At(n.curSvc, n.fireFn)
}

func (n *Network) fire() {
	m := n.queue[0]
	n.Msgs++
	n.Bytes += int64(m.bytes)
	n.BusyTime += n.curSvc
	copy(n.queue, n.queue[1:])
	n.queue[len(n.queue)-1] = netMsg{}
	n.queue = n.queue[:len(n.queue)-1]
	if len(n.queue) > 0 {
		n.serveNext()
	} else {
		n.busy = false
	}
	if m.done != nil {
		m.done()
	}
}

// Utilization returns the busy fraction over the elapsed virtual time.
func (n *Network) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return n.BusyTime / elapsed
}
