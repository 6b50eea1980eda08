package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSpinWait: a spinWait returns what arrives while it spins, gives up
// once spinBound has passed so that its caller parks, and one built at a
// single P never spins.
func TestSpinWait(t *testing.T) {
	w := spinWait{on: true}

	t.Run("arrives-during-spin", func(t *testing.T) {
		// The 40th try succeeds: past the first clock check, well inside
		// the bound.
		calls := 0
		if !w.spin(func() bool { calls++; return calls == 40 }) || calls != 40 {
			t.Fatalf("spin stopped after %d tries, want success at the 40th", calls)
		}
		if runtime.GOMAXPROCS(0) < 2 {
			return
		}
		// A value sent from another running goroutine while the receiver
		// spins. Both spin up first, so neither waits to be scheduled. An
		// attempt still misses when the host takes a vCPU away for longer
		// than spinBound, so attempts repeat until one receives or ten
		// seconds have passed: a spinRecv that never receives fails.
		deadline := time.Now().Add(10 * time.Second)
		for attempt := 1; ; attempt++ {
			ch := make(chan int, 1)
			var ready, fire atomic.Bool
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				ready.Store(true)
				for !fire.Load() {
				}
				ch <- 7
			}()
			for !ready.Load() {
			}
			fire.Store(true)
			v, ok := spinRecv(w, (<-chan int)(ch))
			<-sent
			if ok && v == 7 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("spinRecv missed a value sent while it spun, %d times in a row (got %d, %v)", attempt, v, ok)
			}
		}
	})

	t.Run("parks-after-bound", func(t *testing.T) {
		calls := 0
		start := time.Now()
		if w.spin(func() bool { calls++; return false }) {
			t.Fatal("spin succeeded with a try that never does")
		}
		if d := time.Since(start); d < spinBound {
			t.Fatalf("spin gave up after %v, before the %v bound", d, spinBound)
		}
		if calls < 16 {
			t.Fatalf("spin tried %d times", calls)
		}
		// spinRecv reports the miss; the caller's blocking receive then
		// gets the value sent later.
		ch := make(chan int, 1)
		if _, ok := spinRecv(w, (<-chan int)(ch)); ok {
			t.Fatal("spinRecv received from an empty channel")
		}
		go func() { time.Sleep(time.Millisecond); ch <- 9 }()
		if v := <-ch; v != 9 {
			t.Fatalf("parked receive got %d", v)
		}
	})

	t.Run("one-P-never-spins", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(1)
		w1 := newSpinWait()
		srv, _ := testServer(t, core.PSAA)
		defer srv.Close()
		cl := attachClient(t, srv)
		defer cl.Close()
		runtime.GOMAXPROCS(prev)
		if w1.on || srv.spin.on || cl.spin.on {
			t.Fatalf("built at one P: spinWait %v, server %v, client %v", w1.on, srv.spin.on, cl.spin.on)
		}
		calls := 0
		if w1.spin(func() bool { calls++; return true }) || calls != 0 {
			t.Fatalf("a spinWait built at one P tried %d times", calls)
		}
	})
}

// TestSpinEngineLockExclusion: eight goroutines take the engine lock the
// way every engine step does, spinning first, against a holder that keeps
// it 1 ms at a time — far past spinBound, so the spinners give up and
// park. The lock still excludes (a plain counter under it, checked by
// -race) and every goroutine gets through.
func TestSpinEngineLockExclusion(t *testing.T) {
	s := &Server{metrics: newServerMetrics(obs.NewRegistry()), spin: spinWait{on: true}}
	const workers, rounds = 8, 50
	var inside atomic.Int32
	counter := 0
	stop := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			held := s.lockEngine()
			time.Sleep(time.Millisecond)
			s.unlockEngine(held)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				held := s.lockEngine()
				if n := inside.Add(1); n != 1 {
					t.Errorf("%d goroutines inside the engine lock", n)
				}
				counter++
				inside.Add(-1)
				s.unlockEngine(held)
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("engine-lock waiters did not all finish")
	}
	close(stop)
	<-holderDone
	if counter != workers*rounds {
		t.Fatalf("counter %d, want %d", counter, workers*rounds)
	}
}

// TestSpinPipeCallbacksAtOneP: at one P, where nothing spins, two pipe
// clients each rewrite their own object of one page that the other
// caches, so nearly every write calls the other's copy back; 2 000
// transactions finish.
func TestSpinPipeCallbacksAtOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _ := testServer(t, core.PSAA)
	defer srv.Close()
	const txns = 1000 // per client
	before := srv.Stats().Callbacks
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cl := attachClient(t, srv)
		defer cl.Close()
		if cl.spin.on {
			t.Fatal("client built at one P spins")
		}
		go func(mine core.ObjID) { done <- rewriteOwn(cl, mine, txns) }(o(5, uint16(i)))
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("the two clients stopped making progress")
		}
	}
	// Nearly every write calls back (1 960–1 981 of 2 000 in three runs):
	// not the first, before the other client caches the page, nor one
	// that follows its own client's last without the other's in between.
	if cb := srv.Stats().Callbacks - before; cb < 2*txns*9/10 {
		t.Fatalf("%d callbacks for %d transactions; the clients did not call each other back", cb, 2*txns)
	}
}
