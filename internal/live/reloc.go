package live

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// The relocation table is the server-authoritative record of online
// reclustering: old object address -> current physical address. The front
// door consults it on every read/write request (via a copy-on-write
// snapshot, so the hot path is one atomic load and a map probe), and
// clients learn redirects lazily through MRelocated replies.
//
// Durability: every migration commit carries its relocations in the WAL
// record (walFormatBinary2), so the table is always reconstructible from
// relocs.db (the checkpoint-time base image) plus the WAL suffix. The
// side file is written atomically (tmp + rename + dir fsync, CRC-framed)
// at store creation, at every checkpoint BEFORE the log truncation retires
// the records it covers, and at clean shutdown. It also records the spare-page
// count — the pages past the user-visible geometry that migrations
// allocate destinations from.

const (
	relocMagic   = 0x4352_4C4F // "ORLC"
	relocVersion = 1
	relocFile    = "relocs.db"
)

// relocView is one immutable copy-on-write snapshot of the table: the
// redirect map for the front door, plus a per-page index of retired
// (moved-away-from) slots so page grants can mark them Unavail without
// scanning the whole map.
type relocView struct {
	m       map[core.ObjID]core.ObjID
	retired map[core.PageID][]uint16
	given   map[core.ObjID]bool // every address in m, as a key or a value
}

// relocTable maps retired object addresses to their current placement,
// with chain compression: every stored mapping is terminal (from ->
// final), so lookups never walk. The table is its published view: writers
// (a migration's commit, under the engine lock, and replay, before the
// server serves) build the next view and publish it; every reader, on the
// lock or off it, loads the current one.
type relocTable struct {
	spare int32 // spare (non-user-addressable) pages in the store

	snap atomic.Pointer[relocView]
}

// publish installs m, which no one may write after, as the table's view.
func (t *relocTable) publish(m map[core.ObjID]core.ObjID) {
	v := &relocView{
		m:       m,
		retired: make(map[core.PageID][]uint16),
		given:   make(map[core.ObjID]bool, 2*len(m)),
	}
	for k, to := range m {
		v.retired[k.Page] = append(v.retired[k.Page], k.Slot)
		v.given[k], v.given[to] = true, true
	}
	t.snap.Store(v)
}

// view returns the current snapshot for lock-free lookups. Nil-receiver
// safe: a server without reclustering state sees an empty view.
func (t *relocTable) view() *relocView {
	if t == nil {
		return nil
	}
	return t.snap.Load()
}

// lookup resolves o through the view (nil-safe).
func (v *relocView) lookup(o core.ObjID) (core.ObjID, bool) {
	if v == nil || len(v.m) == 0 {
		return core.ObjID{}, false
	}
	to, ok := v.m[o]
	return to, ok
}

// retiredSlots returns the moved-away-from slots on page p (nil-safe).
func (v *relocView) retiredSlots(p core.PageID) []uint16 {
	if v == nil {
		return nil
	}
	return v.retired[p]
}

// relocated is the redirect answering request m: its object lives at to.
func relocated(m *core.Msg, to core.ObjID) core.Msg {
	return core.Msg{Kind: core.MRelocated, To: m.From, Req: m.Req, Txn: m.Txn,
		Obj: m.Obj, Objs: []core.ObjID{to}}
}

// apply records from -> to in m. Chains compress eagerly: if to is itself
// relocated the terminal address is stored, and every mapping ending at
// from is rewritten to to — so the invariant "stored mappings are
// terminal" holds and apply order only matters between entries that chain.
func apply(m map[core.ObjID]core.ObjID, from, to core.ObjID) {
	if final, ok := m[to]; ok {
		to = final
	}
	if from == to {
		delete(m, from)
		return
	}
	m[from] = to
	for k, v := range m {
		if v == from {
			m[k] = to
		}
	}
}

// applyAll applies relocs to a copy of the current view and publishes it,
// so readers see the whole batch or none of it. Its callers are ordered:
// a migration's commit holds the engine lock, and replay runs before the
// server serves.
func (t *relocTable) applyAll(relocs []core.RelocEntry) {
	if len(relocs) == 0 {
		return
	}
	m := maps.Clone(t.view().m)
	for _, r := range relocs {
		apply(m, r.From, r.To)
	}
	t.publish(m)
}

// entries returns a copy of the view's table (admin view).
func (v *relocView) entries() []core.RelocEntry {
	out := make([]core.RelocEntry, 0, len(v.m))
	for k, to := range v.m {
		out = append(out, core.RelocEntry{From: k, To: to})
	}
	return out
}

// maxSpareSlot returns the highest destination (page, slot) at or above
// userPages, or (0, false) if none — the restart cursor for the spare
// allocator.
func (v *relocView) maxSpareSlot(userPages core.PageID) (core.ObjID, bool) {
	var best core.ObjID
	found := false
	for _, to := range v.m {
		if to.Page >= userPages && (!found || to.Page > best.Page || (to.Page == best.Page && to.Slot > best.Slot)) {
			best, found = to, true
		}
	}
	return best, found
}

// encode serializes the table (CRC-framed) for save.
func (t *relocTable) encode() []byte {
	m := t.view().m
	buf := make([]byte, 0, 20+12*len(m))
	buf = binary.LittleEndian.AppendUint32(buf, relocMagic)
	buf = binary.LittleEndian.AppendUint32(buf, relocVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.spare))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m)))
	// Entries are sorted by source address so identical tables encode to
	// identical bytes — TestReclusterDeterministic diffs relocs.db
	// directly, and deterministic output costs nothing at this size.
	keys := make([]core.ObjID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Page != keys[j].Page {
			return keys[i].Page < keys[j].Page
		}
		return keys[i].Slot < keys[j].Slot
	})
	for _, k := range keys {
		v := m[k]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k.Page))
		buf = binary.LittleEndian.AppendUint16(buf, k.Slot)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Page))
		buf = binary.LittleEndian.AppendUint16(buf, v.Slot)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// save writes the table's current contents atomically to dir/relocs.db
// (see writeFileAtomic).
func (t *relocTable) save(dir string) error {
	buf := t.encode()
	return writeFileAtomic(filepath.Join(dir, relocFile), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// loadRelocTable reads dir/relocs.db. A missing file yields (nil, 0, nil):
// the store predates reclustering (or was created without it), so there
// are no spare pages and no redirects. A present-but-corrupt file is an
// error — fail-stop beats silently dropping redirects, which would serve
// stale bytes at retired addresses.
func loadRelocTable(dir string) (*relocTable, error) {
	buf, err := os.ReadFile(filepath.Join(dir, relocFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(buf) < 20 {
		return nil, fmt.Errorf("live: %s: truncated (%d bytes)", relocFile, len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("live: %s: checksum mismatch", relocFile)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != relocMagic {
		return nil, fmt.Errorf("live: %s: bad magic %#x", relocFile, m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != relocVersion {
		return nil, fmt.Errorf("live: %s: unsupported version %d", relocFile, v)
	}
	spare := int32(binary.LittleEndian.Uint32(body[8:]))
	count := binary.LittleEndian.Uint32(body[12:])
	if int(count)*12 != len(body)-16 {
		return nil, fmt.Errorf("live: %s: entry count %d does not match size", relocFile, count)
	}
	m := make(map[core.ObjID]core.ObjID, count)
	off := 16
	for i := uint32(0); i < count; i++ {
		from := core.ObjID{
			Page: core.PageID(binary.LittleEndian.Uint32(body[off:])),
			Slot: binary.LittleEndian.Uint16(body[off+4:]),
		}
		to := core.ObjID{
			Page: core.PageID(binary.LittleEndian.Uint32(body[off+6:])),
			Slot: binary.LittleEndian.Uint16(body[off+10:]),
		}
		m[from] = to
		off += 12
	}
	t := &relocTable{spare: spare}
	t.publish(m)
	return t, nil
}
