package sim

import "math/rand"

// Disk models a single disk with a FIFO queue of I/O requests and access
// times drawn uniformly from [MinTime, MaxTime], matching the paper's
// server disk model.
type Disk struct {
	e       *Engine
	rng     *rand.Rand
	minTime float64
	maxTime float64

	busy   bool
	queue  []func() // completion callbacks of queued requests
	curSvc float64  // service time of the request in service
	fireFn func()   // cached completion closure

	// Stats.
	IOs      int64
	BusyTime float64
}

// NewDisk creates a disk with uniform access times in [minTime, maxTime]
// seconds, drawing from rng.
func NewDisk(e *Engine, rng *rand.Rand, minTime, maxTime float64) *Disk {
	if minTime < 0 || maxTime < minTime {
		panic("sim: invalid disk time range")
	}
	d := &Disk{e: e, rng: rng, minTime: minTime, maxTime: maxTime}
	d.fireFn = d.fire
	return d
}

// IO enqueues an I/O request; done runs when the access completes.
func (d *Disk) IO(done func()) {
	d.queue = append(d.queue, done)
	if !d.busy {
		d.busy = true
		d.serveNext()
	}
}

// IOP is IO but blocks the calling process until the access completes.
func (d *Disk) IOP(p *Proc) {
	d.IO(p.unparkFn)
	p.Park()
}

// serveNext schedules completion of the head request. Exactly one disk
// completion event is outstanding at a time (FIFO single server).
func (d *Disk) serveNext() {
	d.curSvc = d.minTime + d.rng.Float64()*(d.maxTime-d.minTime)
	d.e.At(d.curSvc, d.fireFn)
}

func (d *Disk) fire() {
	d.IOs++
	d.BusyTime += d.curSvc
	done := d.queue[0]
	copy(d.queue, d.queue[1:])
	d.queue[len(d.queue)-1] = nil
	d.queue = d.queue[:len(d.queue)-1]
	if len(d.queue) > 0 {
		d.serveNext()
	} else {
		d.busy = false
	}
	if done != nil {
		done()
	}
}

// Utilization returns the busy fraction over the elapsed virtual time.
func (d *Disk) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return d.BusyTime / elapsed
}
