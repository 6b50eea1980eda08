package main

import (
	"bytes"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// TestRunRejectsBadFlags: a malformed command line is an error from run,
// before any server is dialled.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names string // what the error must name
	}{
		{nil, "-addr"},
		{[]string{"-clients", "2"}, "-addr"},
		{[]string{"-nosuchflag"}, "-nosuchflag"},
		{[]string{"-proto", "PS-AA"}, "-proto"},
		{[]string{"-addr", "127.0.0.1:1", "stray"}, "stray"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("run(%q) = %v, want an error that names %s", tc.args, err, tc.names)
		}
	}
}

// TestRunReconnectRetries drives a server through a proxy that cuts the
// first client connection to carry a few KB. With -reconnect the client
// redials, the transaction it lost is retried, and the run ends cleanly
// with the retry counted; without it the cut ends the run with an error.
func TestRunReconnectRetries(t *testing.T) {
	srv, err := repro.OpenServer(t.TempDir(), repro.ServerOptions{Proto: core.PSAA, NumPages: 1250, ObjsPerPage: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}

	retries := regexp.MustCompile(`(\d+) reconnect retries`)
	for _, reconnect := range []bool{true, false} {
		p := newCuttingProxy(t, srv.Addr(), 8<<10)
		args := []string{"-addr", p.addr(), "-clients", "2", "-txns", "100"}
		if reconnect {
			args = append(args, "-reconnect")
		}
		var out bytes.Buffer
		err := run(args, &out)
		p.close()
		if !p.cut.Load() {
			t.Fatalf("reconnect=%v: the proxy never cut a connection\n%s", reconnect, out.String())
		}
		if !reconnect {
			if err == nil {
				t.Errorf("without -reconnect a cut connection ended the run with no error:\n%s", out.String())
			}
			continue
		}
		if err != nil {
			t.Fatalf("with -reconnect: %v\n%s", err, out.String())
		}
		m := retries.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no reconnect count in the output:\n%s", out.String())
		}
		if n, _ := strconv.Atoi(m[1]); n < 1 {
			t.Errorf("%s after a cut connection, want at least one", m[0])
		}
		if !strings.Contains(out.String(), "committed 200 txns") {
			t.Errorf("not every transaction committed:\n%s", out.String())
		}
	}
}

// cuttingProxy forwards TCP connections to a backend and closes the first
// one whose traffic, both ways together, passes limit bytes.
type cuttingProxy struct {
	ln    net.Listener
	cut   atomic.Bool
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newCuttingProxy(t *testing.T, backend string, limit int64) *cuttingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cuttingProxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				front.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, front, back)
			p.mu.Unlock()
			var moved atomic.Int64
			pipe := func(dst, src net.Conn) {
				defer p.wg.Done()
				buf := make([]byte, 4096)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						if _, werr := dst.Write(buf[:n]); werr != nil {
							break
						}
						if moved.Add(int64(n)) > limit && p.cut.CompareAndSwap(false, true) {
							break
						}
					}
					if err != nil {
						break
					}
				}
				front.Close()
				back.Close()
			}
			p.wg.Add(2)
			go pipe(back, front)
			go pipe(front, back)
		}
	}()
	return p
}

func (p *cuttingProxy) addr() string { return p.ln.Addr().String() }

// close stops accepting, closes every forwarded connection and waits for
// the proxy's goroutines.
func (p *cuttingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
