package sim

// CPU models a processor with the two-level priority scheme described in
// the paper's system model (Section 4.1):
//
//   - "System" CPU requests (lock operations, message handling, I/O
//     initiation) have priority over user-level requests and are scheduled
//     FIFO, one at a time.
//   - "User" requests share the processor (processor sharing) using
//     whatever capacity is left; while any system request is executing,
//     user requests make no progress.
//
// Costs are expressed in instructions; the CPU speed is expressed in MIPS.
type CPU struct {
	e   *Engine
	ips float64 // instructions per second

	sysQ      []cpuJob
	sysActive bool
	sysFireFn func() // cached completion closure for the head system job

	userJobs   []userJob
	lastUser   float64 // virtual time at which user remaining was last advanced
	userTimer  Timer   // pending user completion event (stopped when superseded)
	userFireFn func()  // cached user completion closure

	// Stats.
	SysBusy  float64 // cumulative seconds spent on system requests
	UserBusy float64 // cumulative seconds of user progress (capacity-weighted)
	sysStart float64
}

type cpuJob struct {
	instr float64
	done  func()
}

type userJob struct {
	remaining float64
	done      func()
}

// completion slack, in instructions, to absorb float drift.
const userEps = 1e-6

// NewCPU creates a CPU executing mips million instructions per second.
func NewCPU(e *Engine, mips float64) *CPU {
	if mips <= 0 {
		panic("sim: CPU speed must be positive")
	}
	c := &CPU{e: e, ips: mips * 1e6, lastUser: e.Now()}
	c.sysFireFn = c.sysFire
	c.userFireFn = c.userFire
	return c
}

// MIPS returns the configured speed in millions of instructions/second.
func (c *CPU) MIPS() float64 { return c.ips / 1e6 }

// UseSystem schedules a high-priority FIFO request of the given number of
// instructions; done runs when it completes.
func (c *CPU) UseSystem(instr float64, done func()) {
	if instr < 0 {
		panic("sim: negative instruction count")
	}
	c.sysQ = append(c.sysQ, cpuJob{instr: instr, done: done})
	if !c.sysActive {
		c.advanceUsers()
		c.sysActive = true
		c.sysStart = c.e.Now()
		c.startNextSys()
		c.scheduleUser() // freezes user progress (cancels pending completion)
	}
}

// startNextSys schedules the completion of the head system job. Exactly
// one system completion event is outstanding at a time, so the head of
// sysQ at fire time is the job that was scheduled.
func (c *CPU) startNextSys() {
	c.e.At(c.sysQ[0].instr/c.ips, c.sysFireFn)
}

func (c *CPU) sysFire() {
	// Pop the completed job.
	job := c.sysQ[0]
	copy(c.sysQ, c.sysQ[1:])
	c.sysQ[len(c.sysQ)-1] = cpuJob{}
	c.sysQ = c.sysQ[:len(c.sysQ)-1]
	if len(c.sysQ) > 0 {
		if job.done != nil {
			job.done()
		}
		// done() may have appended more system work; the queue is
		// non-empty either way.
		c.startNextSys()
		return
	}
	// Queue drained: resume user progress before running done, since
	// done may enqueue new work.
	c.sysActive = false
	c.SysBusy += c.e.Now() - c.sysStart
	c.lastUser = c.e.Now()
	c.scheduleUser()
	if job.done != nil {
		job.done()
	}
}

// UseUser schedules a processor-shared user request of the given number of
// instructions; done runs when it completes.
func (c *CPU) UseUser(instr float64, done func()) {
	if instr < 0 {
		panic("sim: negative instruction count")
	}
	c.advanceUsers()
	c.userJobs = append(c.userJobs, userJob{remaining: instr, done: done})
	c.scheduleUser()
}

// UseSystemP is UseSystem but blocks the calling process until completion.
func (c *CPU) UseSystemP(p *Proc, instr float64) {
	c.UseSystem(instr, p.unparkFn)
	p.Park()
}

// UseUserP is UseUser but blocks the calling process until completion.
func (c *CPU) UseUserP(p *Proc, instr float64) {
	c.UseUser(instr, p.unparkFn)
	p.Park()
}

// advanceUsers accrues progress on user jobs since lastUser at the current
// sharing rate. It must be called before any state change that affects the
// rate (system activity toggles, user job arrivals/departures).
func (c *CPU) advanceUsers() {
	now := c.e.Now()
	dt := now - c.lastUser
	c.lastUser = now
	if dt <= 0 || c.sysActive || len(c.userJobs) == 0 {
		return
	}
	rate := c.ips / float64(len(c.userJobs))
	for i := range c.userJobs {
		c.userJobs[i].remaining -= rate * dt
	}
	c.UserBusy += dt
}

// scheduleUser (re)schedules the next user-job completion event, stopping
// any previously-scheduled one.
func (c *CPU) scheduleUser() {
	c.userTimer.Stop()
	c.userTimer = Timer{}
	if c.sysActive || len(c.userJobs) == 0 {
		return
	}
	minRem := c.userJobs[0].remaining
	for i := 1; i < len(c.userJobs); i++ {
		if c.userJobs[i].remaining < minRem {
			minRem = c.userJobs[i].remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	d := minRem * float64(len(c.userJobs)) / c.ips
	c.userTimer = c.e.At(d, c.userFireFn)
}

func (c *CPU) userFire() {
	c.userTimer = Timer{}
	c.advanceUsers()
	// Complete all jobs that have (within tolerance) finished, FIFO.
	var doneJobs []func()
	kept := c.userJobs[:0]
	for _, j := range c.userJobs {
		if j.remaining <= userEps {
			if j.done != nil {
				doneJobs = append(doneJobs, j.done)
			}
		} else {
			kept = append(kept, j)
		}
	}
	c.userJobs = kept
	c.scheduleUser()
	for _, fn := range doneJobs {
		fn()
	}
}

// Busy reports whether any request (system or user) is in progress.
func (c *CPU) Busy() bool { return c.sysActive || len(c.userJobs) > 0 }

// Utilization returns the fraction of the elapsed time the CPU has spent
// busy, given the total elapsed virtual time.
func (c *CPU) Utilization(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	busy := c.SysBusy + c.UserBusy
	if c.sysActive {
		busy += c.e.Now() - c.sysStart
	}
	return busy / elapsed
}
