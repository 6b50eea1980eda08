package live

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Binary wire codec for core.Msg (and WAL records): every field is
// encoded explicitly — no reflection — so the live data plane pays a few
// varint appends per message instead of a reflective encoder's type
// negotiation and allocation churn.
//
// Frame layout (TCP transport):
//
//	[4-byte little-endian body length][body]
//
// The body is the field sequence below, in struct order. Integers are
// varints (zigzag for signed), bools are packed into one flags byte, and
// every slice/map is length-prefixed with uvarint(len+1) so that nil
// (0) and empty (1) round-trip distinguishably — protocol code treats
// "no notices" (nil) and "zero notices" (empty) identically, but the
// codec must not silently canonicalize one into the other.
//
// The layout is versioned by the one-byte connection handshake
// (wireVersion in wire.go), not per message: bumping the codec bumps the
// handshake byte.

// maxFrame bounds a frame body; anything larger is corruption, not a
// message (the largest legitimate message is one page + control fields).
const maxFrame = 1 << 28

// encBufPool recycles encode buffers across sends; buffers grow to the
// largest message or pump batch seen (putEncBuf drops the outliers).
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// encBufKeep is how many bytes a session pump gathers before it writes
// (sixteen page replies), and with that the size of the encode buffers
// the pool keeps: a batch overshoots it by at most its last frame, and
// append rounds the capacity up.
const encBufKeep = 64 << 10

func putEncBuf(bp *[]byte, b []byte) {
	if cap(b) <= 2*encBufKeep {
		*bp = b[:0]
		encBufPool.Put(bp)
	}
}

func appendInt(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendBytes encodes a byte slice, distinguishing nil from empty.
func appendBytes(b, s []byte) []byte {
	if s == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(s))+1)
	return append(b, s...)
}

func appendPageIDs(b []byte, ps []core.PageID) []byte {
	if ps == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(ps))+1)
	for _, p := range ps {
		b = appendInt(b, int64(p))
	}
	return b
}

func appendObjID(b []byte, o core.ObjID) []byte {
	b = appendInt(b, int64(o.Page))
	return appendUint(b, uint64(o.Slot))
}

func appendObjIDs(b []byte, os []core.ObjID) []byte {
	if os == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(os))+1)
	for _, o := range os {
		b = appendObjID(b, o)
	}
	return b
}

func appendU16s(b []byte, vs []uint16) []byte {
	if vs == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(vs))+1)
	for _, v := range vs {
		b = appendUint(b, uint64(v))
	}
	return b
}

func appendUpdates(b []byte, m map[core.ObjID][]byte) []byte {
	if m == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(m))+1)
	for o, v := range m {
		b = appendObjID(b, o)
		b = appendBytes(b, v)
	}
	return b
}

// appendMsg encodes m onto b and returns the extended buffer.
func appendMsg(b []byte, m *core.Msg) []byte {
	b = appendMsgHead(b, m)
	b = appendBytes(b, m.Data)
	return appendMsgTail(b, m)
}

// appendMsgFrame appends m's frame (length header, then body) to dst. With a
// store, a data grant is taken to be staged without its payload
// (Server.stage): the Data field is copied straight out of the store's frame
// under the page latch, and the frame is byte for byte what m with Data
// filled in would encode to.
func appendMsgFrame(dst []byte, m *core.Msg, store *Store) ([]byte, error) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if store == nil || (m.Kind != core.MPageData && m.Kind != core.MObjData) {
		dst = appendMsg(dst, m)
	} else {
		dst = appendMsgHead(dst, m)
		var err error
		if m.Kind == core.MPageData {
			dst, err = store.appendPage(dst, m.Page)
		} else {
			dst, err = store.appendObj(dst, m.Obj)
		}
		if err != nil {
			return dst[:at], err
		}
		dst = appendMsgTail(dst, m)
	}
	body := len(dst) - at - 4
	if body > maxFrame {
		return dst[:at], fmt.Errorf("live: message exceeds frame limit (%d bytes)", body)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(body))
	return dst, nil
}

// appendMsgHead encodes the fields ahead of Data, appendMsgTail the ones
// behind it.
func appendMsgHead(b []byte, m *core.Msg) []byte {
	b = appendInt(b, int64(m.Kind))
	b = appendInt(b, int64(m.From))
	b = appendInt(b, int64(m.To))
	b = appendInt(b, int64(m.Txn))
	b = appendInt(b, m.Req)
	b = appendInt(b, int64(m.Page))
	b = appendObjID(b, m.Obj)

	var flags byte
	if m.WantData {
		flags |= 1 << 0
	}
	if m.Purged {
		flags |= 1 << 1
	}
	if m.Busy {
		flags |= 1 << 2
	}
	// Bit 3 is reserved: only servers with a variable-size store, since
	// deleted, set it, and decoders ignore it.
	b = append(b, flags)

	b = appendInt(b, int64(m.Grant))
	b = appendInt(b, int64(m.CB))
	b = appendInt(b, int64(m.BusyTxn))
	b = appendInt(b, m.Epoch)

	b = appendU16s(b, m.Unavail)
	b = appendPageIDs(b, m.Pages)
	b = appendObjIDs(b, m.Objs)
	b = appendPageIDs(b, m.PurgedPages)
	b = appendObjIDs(b, m.PurgedObjs)
	b = appendObjIDs(b, m.DeescObjs)
	b = appendPageIDs(b, m.DroppedPages)
	return appendObjIDs(b, m.DroppedObjs)
}

func appendMsgTail(b []byte, m *core.Msg) []byte {
	b = appendUpdates(b, m.Updates)

	b = appendInt(b, int64(m.HelloID))
	b = appendInt(b, int64(m.HelloPages))
	b = appendInt(b, int64(m.HelloObjsPP))
	b = appendInt(b, int64(m.HelloObjSize))
	b = appendInt(b, int64(m.HelloProto))
	return b
}

// wireDecoder consumes an encoded body with sticky error tracking; the
// caller checks err once at the end. Apart from view, decoded slices
// never alias the input, so frame read buffers can be reused.
type wireDecoder struct {
	b   []byte
	off int
	err error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("live: decode: "+format, args...)
	}
}

func (d *wireDecoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *wireDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *wireDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// length reads a uvarint(len+1) prefix: isNil means the collection was
// nil. The count is sanity-bounded by the remaining bytes (every element
// takes at least one byte), so corrupt input cannot demand huge
// allocations.
func (d *wireDecoder) length() (n int, isNil bool) {
	v := d.uint()
	if d.err != nil || v == 0 {
		return 0, true
	}
	n = int(v - 1)
	if n < 0 || n > len(d.b)-d.off {
		d.fail("length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0, true
	}
	return n, false
}

// view returns a byte field in place: the result aliases the input.
func (d *wireDecoder) view() []byte {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	out := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

func (d *wireDecoder) bytes() []byte { return copyOf(d.view()) }

// copyOf copies b — nil stays nil and empty stays empty, which the codec
// tells apart — as one unzeroed allocation and a memmove
// (append([]byte(nil), b...) goes through growslice instead).
func copyOf(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *wireDecoder) pageIDs() []core.PageID {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	out := make([]core.PageID, n)
	for i := range out {
		out[i] = core.PageID(d.int())
	}
	return out
}

func (d *wireDecoder) objID() core.ObjID {
	p := d.int()
	s := d.uint()
	if s > 0xffff {
		d.fail("slot %d exceeds uint16", s)
	}
	return core.ObjID{Page: core.PageID(p), Slot: uint16(s)}
}

func (d *wireDecoder) objIDs() []core.ObjID {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	out := make([]core.ObjID, n)
	for i := range out {
		out[i] = d.objID()
	}
	return out
}

func (d *wireDecoder) u16s() []uint16 {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		v := d.uint()
		if v > 0xffff {
			d.fail("uint16 overflow: %d", v)
			return out
		}
		out[i] = uint16(v)
	}
	return out
}

func (d *wireDecoder) updates() map[core.ObjID][]byte {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	out := make(map[core.ObjID][]byte, n)
	for i := 0; i < n && d.err == nil; i++ {
		o := d.objID()
		out[o] = d.bytes()
	}
	return out
}

// decodeMsg decodes one frame body into a message that shares nothing
// with b.
func decodeMsg(b []byte) (*core.Msg, error) {
	m, err := decodeFrame(b)
	if err == nil {
		m.Data = copyOf(m.Data)
	}
	return m, err
}

// decodeFrame decodes one frame body, leaving Data a view into b for the
// caller to copy wherever it wants the payload to live. It rejects
// truncated input and trailing garbage, so a framing bug surfaces as a
// decode error rather than silent field skew.
func decodeFrame(b []byte) (*core.Msg, error) {
	d := wireDecoder{b: b}
	m := &core.Msg{}
	m.Kind = core.MsgKind(d.int())
	m.From = core.ClientID(d.int())
	m.To = core.ClientID(d.int())
	m.Txn = core.TxnID(d.int())
	m.Req = d.int()
	m.Page = core.PageID(d.int())
	m.Obj = d.objID()

	flags := d.byte()
	m.WantData = flags&(1<<0) != 0
	m.Purged = flags&(1<<1) != 0
	m.Busy = flags&(1<<2) != 0

	m.Grant = core.GrantLevel(d.int())
	m.CB = core.CallbackKind(d.int())
	m.BusyTxn = core.TxnID(d.int())
	m.Epoch = d.int()

	m.Unavail = d.u16s()
	m.Pages = d.pageIDs()
	m.Objs = d.objIDs()
	m.PurgedPages = d.pageIDs()
	m.PurgedObjs = d.objIDs()
	m.DeescObjs = d.objIDs()
	m.DroppedPages = d.pageIDs()
	m.DroppedObjs = d.objIDs()
	m.Data = d.view()
	m.Updates = d.updates()

	m.HelloID = core.ClientID(d.int())
	m.HelloPages = int32(d.int())
	m.HelloObjsPP = int32(d.int())
	m.HelloObjSize = int32(d.int())
	m.HelloProto = core.Protocol(d.int())

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("live: decode: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}

// ---- WAL record codec ----

// walFormatBinary is the first body byte of a binary-encoded WAL record.
const walFormatBinary = 0xB1

// walFormatBinary2 marks a record that additionally carries relocation
// entries (online reclustering). Records without relocations keep the
// 0xB1 layout, so logs written by a reclustering server stay readable by
// the 0xB1 decoder right up to the first migration commit.
const walFormatBinary2 = 0xB2

// appendWALRecord encodes rec onto b (the CRC-framed WAL body).
func appendWALRecord(b []byte, rec *walRecord) []byte {
	format := byte(walFormatBinary)
	if len(rec.Relocs) > 0 {
		format = walFormatBinary2
	}
	b = append(b, format)
	b = appendInt(b, int64(rec.Txn))
	b = appendInt(b, int64(rec.Client))
	var flags byte
	if rec.Commit {
		flags |= 1
	}
	b = append(b, flags)
	b = appendObjIDs(b, rec.Objs)
	if rec.Images == nil {
		b = appendUint(b, 0)
	} else {
		b = appendUint(b, uint64(len(rec.Images))+1)
		for _, img := range rec.Images {
			b = appendBytes(b, img)
		}
	}
	if format == walFormatBinary2 {
		b = appendUint(b, uint64(len(rec.Relocs)))
		for _, r := range rec.Relocs {
			b = appendObjID(b, r.From)
			b = appendObjID(b, r.To)
		}
	}
	return b
}

// walFormatCheckpoint marks the checkpoint watermark frame older servers
// wrote at the head of a checkpointed log; scanWAL skips it so their logs
// still recover.
const walFormatCheckpoint = 0xC9

// decodeWALRecord decodes a binary WAL body; anything else is an error
// (scanWAL treats it as the log's torn tail).
func decodeWALRecord(b []byte) (*walRecord, error) {
	if len(b) == 0 || (b[0] != walFormatBinary && b[0] != walFormatBinary2) {
		return nil, fmt.Errorf("live: not a binary WAL record")
	}
	format := b[0]
	d := wireDecoder{b: b, off: 1}
	rec := &walRecord{}
	rec.Txn = core.TxnID(d.int())
	rec.Client = core.ClientID(d.int())
	rec.Commit = d.byte()&1 != 0
	rec.Objs = d.objIDs()
	if n, isNil := d.length(); !isNil {
		rec.Images = make([][]byte, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			rec.Images = append(rec.Images, d.bytes())
		}
	}
	if format == walFormatBinary2 {
		n := d.uint()
		if d.err == nil && n > uint64(len(b)) {
			d.fail("reloc count %d exceeds body", n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			from := d.objID()
			to := d.objID()
			rec.Relocs = append(rec.Relocs, core.RelocEntry{From: from, To: to})
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("live: WAL record: %d trailing bytes", len(b)-d.off)
	}
	return rec, nil
}
