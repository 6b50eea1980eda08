package live

import (
	"runtime"
	"time"
)

// spinBound is how long a spinWait keeps trying before its caller parks.
// A goroutine parked on a lock or a channel and readied from the other P
// runs only once that P's vCPU leaves its idle state: 116–120 µs at p50
// and 304 µs at p90 on a 2-vCPU guest (DESIGN §13). A waiter that spins for
// about as long as a park costs and then parks pays at most twice the
// better of the two choices (competitive spin-then-block).
const spinBound = 30 * time.Microsecond

// spinWait is a spin-then-park wait for the few places where one client's
// goroutine waits microseconds for another client's work: the engine lock,
// and on a pipe client a request's reply and the client lock. The zero
// value never spins.
type spinWait struct{ on bool }

// newSpinWait returns a spinWait that spins only if the process has more
// than one P now. At one P the goroutine being waited for cannot run while
// this one spins. The answer is kept, because GOMAXPROCS takes the
// scheduler's lock on every call.
func newSpinWait() spinWait { return spinWait{on: runtime.GOMAXPROCS(0) > 1} }

// spin calls try until it reports true or spinBound has passed, reading the
// clock every 16 calls, and reports whether try succeeded; the caller parks
// when it did not. It never calls try on a spinWait that does not spin.
func (w spinWait) spin(try func() bool) bool {
	if !w.on {
		return false
	}
	if try() {
		return true
	}
	deadline := time.Now().Add(spinBound)
	for i := 1; ; i++ {
		if try() {
			return true
		}
		if i%16 == 0 && time.Now().After(deadline) {
			return false
		}
	}
}

// spinRecv receives from ch if a value arrives while w spins; ok is false
// when none did, and the caller parks on ch.
func spinRecv[T any](w spinWait, ch <-chan T) (v T, ok bool) {
	ok = w.spin(func() bool {
		select {
		case v = <-ch:
			return true
		default:
			return false
		}
	})
	return v, ok
}
