package live

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestStoreOpensFileWithoutFrameTotal opens a store file whose header
// has zero where the frame total goes, as every file written before the
// header recorded it does. The file must read back, and the next flush
// must record the total. A flush after closeRaw must not touch the file.
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

// TestFlushRacesInstalls flushes the store while writers install
// objects of every length up to the slot size, then checks that a last
// flush reopens to exactly what the store holds. Run it with -race: the
// flush reads the frames under page latches only.
func TestFlushRacesInstalls(t *testing.T) {
	const pages, slots, writers = 8, 8, 4
	path := filepath.Join(t.TempDir(), "data.db")
	s, err := CreateStore(path, 512, slots, pages)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				val := bytes.Repeat([]byte{byte(w*400 + i)}, 1+(i*37)%s.ObjSize())
				if err := s.WriteObj(o(core.PageID(i%pages), uint16((w+i)%slots)), val); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
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
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for p := core.PageID(0); p < pages; p++ {
		want, _ := s.ReadPage(p)
		got, err := s2.ReadPage(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("page %d: reopened %x (%v), want %x", p, got, err, want)
		}
	}
}
