package live

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// TestStoreOpensFileWithoutFrameTotal opens a fixed-slot file whose
// header has zero where the frame total goes, as every fixed-slot file
// written before the two store kinds shared one header does. The file
// must read back, and the next flush must record the total. A flush
// after closeRaw must not touch the file.
func TestStoreOpensFileWithoutFrameTotal(t *testing.T) {
	const pages = 8
	path := filepath.Join(t.TempDir(), "data.db")
	s, err := CreateStore(path, 256, 4, pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteObj(o(pages-1, 3), []byte("old file")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(raw[16:]); n != pages {
		t.Fatalf("flushed header records %d frames, want %d", n, pages)
	}
	binary.LittleEndian.PutUint32(raw[16:], 0)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("open without frame total: %v", err)
	}
	got, err := s2.ReadObj(o(pages-1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("old file")) {
		t.Fatalf("last page read back as %q", got)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s2.closeRaw()
	if err := s2.Flush(); err == nil {
		t.Fatal("a flush after closeRaw replaced the file")
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(raw[16:]); n != pages {
		t.Fatalf("flush over an old file records %d frames, want %d", n, pages)
	}
}

// TestFlushRacesInstalls flushes a variable store while a writer grows
// and shrinks objects, forwarding them into an overflow region that grows
// under the flush, then checks that a last flush reopens to exactly what
// the store holds. Run it with -race: the flush reads the frame table
// under page latches only.
func TestFlushRacesInstalls(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	s, err := CreateVStore(path, 512, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			val := bytes.Repeat([]byte{byte(i)}, 8+(i*37)%300)
			if err := s.WriteVObj(i%4, i%8, val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for flushing := true; flushing; {
		select {
		case <-done:
			flushing = false
		default:
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenVStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		for slot := 0; slot < 8; slot++ {
			want, _ := s.ReadVObj(p, slot)
			got, err := s2.ReadVObj(p, slot)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("object %d.%d: reopened %d bytes (%v), want %d", p, slot, len(got), err, len(want))
			}
		}
	}
}
