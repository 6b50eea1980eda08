package live

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func variableServer(t *testing.T) *Server {
	t.Helper()
	srv, err := openServer(t.TempDir(), ServerOptions{
		Proto: core.OS, PageSize: 512, ObjsPerPage: 8, NumPages: 16,
		SyncWAL: false, VariableObjects: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestVariableObjectsRequireOS(t *testing.T) {
	_, err := openServer(t.TempDir(), ServerOptions{
		Proto: core.PSAA, VariableObjects: true,
	})
	if err == nil || !strings.Contains(err.Error(), "OS protocol") {
		t.Fatalf("err = %v, want OS-protocol requirement", err)
	}
}

func TestVariableObjectsEndToEnd(t *testing.T) {
	srv := variableServer(t)
	c1 := attachClient(t, srv)
	defer c1.Close()
	c2 := attachClient(t, srv)
	defer c2.Close()

	if !c1.variable || c1.objSize < 256 {
		t.Fatalf("handshake: variable=%v max=%d", c1.variable, c1.objSize)
	}

	// Values of wildly different sizes, growing and shrinking.
	tx, _ := c1.Begin()
	small := []byte("v1")
	if err := tx.Write(o(0, 0), small); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := c2.Begin()
	got, err := tx2.Read(o(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Fatalf("exact value not preserved: %q (len %d)", got, len(got))
	}
	tx2.Commit()

	// Grow past what several fixed slots could hold.
	big := bytes.Repeat([]byte("G"), c1.objSize*3/4)
	tx3, _ := c1.Begin()
	if err := tx3.Write(o(0, 0), big); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx4, _ := c2.Begin()
	if got, _ := tx4.Read(o(0, 0)); !bytes.Equal(got, big) {
		t.Fatal("grown value lost or padded")
	}
	tx4.Commit()

	// Oversize writes rejected client-side.
	tx5, _ := c1.Begin()
	if err := tx5.Write(o(0, 1), make([]byte, c1.objSize+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
	tx5.Abort()
}

func TestVariableObjectsForwardingUnderLoad(t *testing.T) {
	srv := variableServer(t)
	cl := attachClient(t, srv)
	defer cl.Close()

	// Fill one page's objects until some must forward, then verify all.
	want := make(map[uint16][]byte)
	for s := uint16(0); s < 8; s++ {
		val := bytes.Repeat([]byte{byte('a' + s)}, 60+int(s)*40)
		tx, _ := cl.Begin()
		if err := tx.Write(o(3, s), val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want[s] = val
	}
	vs := srv.store.(*VStore)
	forwarded := 0
	for s := 0; s < 8; s++ {
		if vs.IsForwarded(3, s) {
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Fatal("expected some forwarding under this fill pattern")
	}
	checker := attachClient(t, srv)
	defer checker.Close()
	tx, _ := checker.Begin()
	for s, val := range want {
		got, err := tx.Read(o(3, s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("slot %d: got %d bytes want %d", s, len(got), len(val))
		}
	}
	tx.Commit()
}

func TestVariableObjectsRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, err := openServer(dir, ServerOptions{
		Proto: core.OS, PageSize: 512, ObjsPerPage: 8, NumPages: 16,
		SyncWAL: false, VariableObjects: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := attachClient(t, srv)
	values := map[core.ObjID][]byte{
		o(1, 0): []byte("tiny"),
		o(1, 1): bytes.Repeat([]byte("M"), 150),
		o(2, 0): bytes.Repeat([]byte("L"), 300),
	}
	for obj, val := range values {
		tx, _ := cl.Begin()
		if err := tx.Write(obj, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without flushing the store.
	cl.Close()
	srv.mu.Lock()
	srv.wal.f.Sync()
	srv.wal.f.Close()
	srv.closed = true
	srv.mu.Unlock()

	srv2, err := openServer(dir, ServerOptions{Proto: core.OS, VariableObjects: true, SyncWAL: false})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Close()
	c2 := attachClient(t, srv2)
	defer c2.Close()
	tx, _ := c2.Begin()
	for obj, val := range values {
		got, err := tx.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("object %v: got %d bytes want %d after recovery", obj, len(got), len(val))
		}
	}
	tx.Commit()
}

func TestVariableObjectsConcurrentResizers(t *testing.T) {
	srv := variableServer(t)
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		cl := attachClient(t, srv)
		defer cl.Close()
		go func(i int, cl *Client) {
			for n := 0; n < 30; n++ {
				size := 10 + (n*37+i*91)%300
				val := bytes.Repeat([]byte{byte('0' + i)}, size)
				for {
					tx, err := cl.Begin()
					if err != nil {
						done <- err
						return
					}
					err = tx.Write(o(core.PageID(5+i), uint16(n%8)), val)
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					if !errors.Is(err, ErrAborted) {
						done <- fmt.Errorf("client %d: %w", i, err)
						return
					}
				}
			}
			done <- nil
		}(i, cl)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
