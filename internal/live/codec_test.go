package live

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

// roundTrip encodes m, decodes the bytes, and fails the test unless the
// result is deeply equal (including nil-vs-empty slice identity).
func roundTrip(t *testing.T, m *core.Msg) {
	t.Helper()
	enc := appendMsg(nil, m)
	got, err := decodeMsg(enc)
	if err != nil {
		t.Fatalf("decode(%v): %v", m.Kind, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch for %v:\n got %+v\nwant %+v", m.Kind, got, m)
	}
}

// TestMsgCodecRoundTrip covers every message kind with the field shapes
// the protocol actually sends, plus boundary values (negative ids, max
// slots, zero-length payloads).
func TestMsgCodecRoundTrip(t *testing.T) {
	msgs := []*core.Msg{
		{Kind: core.MReadReq, From: 1, Txn: 10, Req: 1, Obj: o(3, 2), WantData: true},
		{Kind: core.MWriteReq, From: 2, Txn: 11, Req: 2, Obj: o(0, 0), WantData: true,
			DroppedPages: []core.PageID{4, 5}, DroppedObjs: []core.ObjID{o(1, 1)}},
		{Kind: core.MCommitReq, From: 3, Txn: 12, Req: 3,
			Pages: []core.PageID{0, 1}, Objs: []core.ObjID{o(0, 1)},
			Updates: map[core.ObjID][]byte{o(0, 1): []byte("img"), o(1, 0): {}}},
		{Kind: core.MAbortReq, From: 4, Txn: 13, Req: 4,
			PurgedPages: []core.PageID{7}, PurgedObjs: []core.ObjID{o(7, 3)}},
		{Kind: core.MCallbackAck, From: 5, Txn: 14, Req: 5, Obj: o(2, 65535),
			Purged: true, Busy: true, BusyTxn: -9, Epoch: 1 << 40},
		{Kind: core.MDeescReply, From: 6, Txn: 15, Req: 6, Page: 9,
			DeescObjs: []core.ObjID{o(9, 0), o(9, 19)}},
		{Kind: core.MPageData, To: 1, Txn: 16, Req: 7, Page: 2, Grant: core.GrantPage,
			Unavail: []uint16{0, 65535}, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: core.MObjData, To: 2, Txn: 17, Req: 8, Obj: o(5, 5),
			Grant: core.GrantObject, Data: []byte("one object")},
		{Kind: core.MGrant, To: 3, Txn: 18, Req: 9, Obj: o(6, 6), Grant: core.GrantObject},
		{Kind: core.MCommitAck, To: 4, Txn: 19, Req: 10},
		{Kind: core.MAbortYou, To: 5, Txn: -20},
		{Kind: core.MCallback, To: 6, Txn: 21, Req: 11, Obj: o(8, 1),
			CB: core.CBAdaptive, BusyTxn: 3, Epoch: 99},
		{Kind: core.MDeescReq, To: 7, Txn: 22, Req: 12, Page: -1},
		{Kind: core.MHello, HelloID: 42, HelloPages: 1 << 20, HelloObjsPP: 20,
			HelloObjSize: 100, HelloProto: core.PSWT},
		{}, // the zero message
	}
	seen := map[core.MsgKind]bool{}
	for _, m := range msgs {
		roundTrip(t, m)
		seen[m.Kind] = true
	}
	for k := core.MReadReq; k <= core.MHello; k++ {
		if !seen[k] {
			t.Errorf("no round-trip case for kind %v", k)
		}
	}
}

// TestMsgCodecIgnoresReservedFlag: bit 3 of the flags byte is reserved.
// Only servers with the since-deleted variable-size store set it, in their
// handshake; a decoder ignores it, so wireVersion stays 1.
func TestMsgCodecIgnoresReservedFlag(t *testing.T) {
	m := &core.Msg{Kind: core.MHello, To: 3, HelloID: 3, HelloPages: 8,
		HelloObjsPP: 4, HelloObjSize: 63, HelloProto: core.OS}
	enc := appendMsg(nil, m)
	head := appendInt(nil, int64(m.Kind))
	head = appendInt(head, int64(m.From))
	head = appendInt(head, int64(m.To))
	head = appendInt(head, int64(m.Txn))
	head = appendInt(head, m.Req)
	head = appendInt(head, int64(m.Page))
	head = appendObjID(head, m.Obj)
	if enc[len(head)] != 0 {
		t.Fatalf("flags byte %#x, want 0", enc[len(head)])
	}
	enc[len(head)] |= 1 << 3
	got, err := decodeMsg(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("reserved bit changed the decode:\n got %+v\nwant %+v", got, m)
	}
}

// TestMsgCodecNilVsEmpty pins the uvarint(len+1) prefix semantics: nil and
// empty collections must decode back to exactly what was sent, because
// some call sites distinguish "field absent" from "zero entries".
func TestMsgCodecNilVsEmpty(t *testing.T) {
	roundTrip(t, &core.Msg{Kind: core.MPageData, Data: nil, Unavail: nil, Updates: nil})
	roundTrip(t, &core.Msg{Kind: core.MPageData, Data: []byte{}, Unavail: []uint16{},
		Updates: map[core.ObjID][]byte{}})
	roundTrip(t, &core.Msg{Kind: core.MCommitReq,
		Pages: []core.PageID{}, Objs: []core.ObjID{},
		Updates: map[core.ObjID][]byte{o(0, 0): nil, o(0, 1): {}}})
}

// TestMsgCodecRejectsCorrupt checks the decoder's strictness: truncation,
// trailing garbage, and over-long length prefixes are errors, never
// silently skewed fields.
func TestMsgCodecRejectsCorrupt(t *testing.T) {
	enc := appendMsg(nil, &core.Msg{Kind: core.MPageData, Data: []byte("payload"),
		Unavail: []uint16{3}})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeMsg(enc[:cut]); err == nil {
			t.Fatalf("decode accepted truncation to %d/%d bytes", cut, len(enc))
		}
	}
	if _, err := decodeMsg(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
	// A length prefix claiming more elements than bytes remain must fail
	// without allocating the claimed size.
	huge := appendUint(nil, 1<<30)
	d := wireDecoder{b: huge}
	if _, isNil := d.length(); !isNil || d.err == nil {
		t.Fatal("oversized length prefix not rejected")
	}
}

// TestWALRecordCodecRoundTrip covers the WAL body codec, including nil
// and empty image lists.
func TestWALRecordCodecRoundTrip(t *testing.T) {
	recs := []*walRecord{
		{Txn: 7, Client: 2, Commit: true,
			Objs:   []core.ObjID{o(0, 1), o(3, 19)},
			Images: [][]byte{[]byte("aa"), []byte("bbbb")}},
		{Txn: -1, Client: 0, Commit: false, Objs: []core.ObjID{}, Images: [][]byte{}},
		{Txn: 1 << 50, Commit: true, Objs: nil, Images: nil},
		{Txn: 9, Commit: true, Objs: []core.ObjID{o(1, 0)}, Images: [][]byte{nil}},
	}
	for i, rec := range recs {
		body := appendWALRecord(nil, rec)
		got, err := decodeWALRecord(body)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("rec %d mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
	if _, err := decodeWALRecord([]byte{0x00, 0x01}); err == nil {
		t.Fatal("non-binary body accepted")
	}
}

// buildFuzzMsg derives a Msg from fuzz primitives. Collection presence is
// controlled by nilBits (bit set = nil) and lengths/elements by seed, so
// the fuzzer can explore nil, empty, and populated shapes for every field.
func buildFuzzMsg(kind uint8, from, to int32, txn, req, epoch int64, page int32,
	slot uint16, flags uint8, data, seed []byte, nilBits uint16) *core.Msg {
	m := &core.Msg{
		Kind: core.MsgKind(int(kind) % 14),
		From: core.ClientID(from), To: core.ClientID(to),
		Txn: core.TxnID(txn), Req: req,
		Page:     core.PageID(page),
		Obj:      core.ObjID{Page: core.PageID(page ^ 7), Slot: slot},
		WantData: flags&1 != 0, Purged: flags&2 != 0, Busy: flags&4 != 0,
		Grant:   core.GrantLevel(int(flags>>4) % 3),
		CB:      core.CallbackKind(int(flags>>6) % 3),
		BusyTxn: core.TxnID(txn ^ req), Epoch: epoch,
		HelloID:      core.ClientID(to ^ 1),
		HelloPages:   page&0x7fffffff + 1,
		HelloObjsPP:  int32(slot) + 1,
		HelloObjSize: int32(kind) + 1,
		HelloProto:   core.Protocol(int(kind) % 6),
	}
	n := len(seed)
	has := func(bit int) bool { return nilBits&(1<<bit) == 0 }
	pageList := func(count int) []core.PageID {
		out := make([]core.PageID, count)
		for i := range out {
			out[i] = core.PageID(int32(seed[i]) - 128)
		}
		return out
	}
	objList := func(count int) []core.ObjID {
		out := make([]core.ObjID, count)
		for i := range out {
			out[i] = core.ObjID{Page: core.PageID(seed[i]), Slot: uint16(seed[i]) << 5}
		}
		return out
	}
	if has(0) {
		m.Unavail = make([]uint16, n%5)
		for i := range m.Unavail {
			m.Unavail[i] = uint16(seed[i]) * 257
		}
	}
	if has(1) {
		m.Pages = pageList(n % 4)
	}
	if has(2) {
		m.Objs = objList(n % 3)
	}
	if has(3) {
		m.PurgedPages = pageList(n % 2)
	}
	if has(4) {
		m.PurgedObjs = objList(n % 4)
	}
	if has(5) {
		m.DeescObjs = objList(n % 2)
	}
	if has(6) {
		m.DroppedPages = pageList(n % 3)
	}
	if has(7) {
		m.DroppedObjs = objList(n % 2)
	}
	if has(8) {
		m.Data = append([]byte{}, data...)
	}
	if has(9) {
		m.Updates = make(map[core.ObjID][]byte, n%3)
		for i := 0; i < n%3; i++ {
			var img []byte
			if seed[i]&1 == 0 {
				img = append([]byte{}, seed[:i]...)
			}
			m.Updates[core.ObjID{Page: core.PageID(i), Slot: uint16(seed[i])}] = img
		}
	}
	return m
}

// FuzzMsgCodec asserts decode(encode(m)) == m over fuzzer-driven message
// shapes: every MsgKind, every collection nil/empty/populated, boundary
// integers.
func FuzzMsgCodec(f *testing.F) {
	f.Add(uint8(0), int32(1), int32(2), int64(3), int64(4), int64(5), int32(6),
		uint16(7), uint8(0xFF), []byte("data"), []byte{1, 2, 3}, uint16(0))
	f.Add(uint8(6), int32(-1), int32(0), int64(-1), int64(1<<40), int64(-9), int32(-8),
		uint16(65535), uint8(0), []byte{}, []byte{}, uint16(0x3FF))
	f.Add(uint8(13), int32(9), int32(9), int64(0), int64(0), int64(0), int32(0),
		uint16(0), uint8(8), []byte(nil), []byte{255, 0, 128}, uint16(0x155))
	f.Fuzz(func(t *testing.T, kind uint8, from, to int32, txn, req, epoch int64,
		page int32, slot uint16, flags uint8, data, seed []byte, nilBits uint16) {
		m := buildFuzzMsg(kind, from, to, txn, req, epoch, page, slot, flags, data, seed, nilBits)
		enc := appendMsg(nil, m)
		got, err := decodeMsg(enc)
		if err != nil {
			t.Fatalf("decode(encode(m)): %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
	})
}

// FuzzMsgDecode throws raw bytes at the decoder: it must never panic or
// over-allocate, and anything it accepts must re-encode to an equivalent
// message (decoder/encoder agreement on the accepted language).
func FuzzMsgDecode(f *testing.F) {
	f.Add(appendMsg(nil, &core.Msg{Kind: core.MPageData, Data: []byte("x"),
		Unavail: []uint16{1}}))
	f.Add(appendMsg(nil, &core.Msg{Kind: core.MCommitReq,
		Updates: map[core.ObjID][]byte{o(1, 2): []byte("y")}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeMsg(raw)
		if err != nil {
			return
		}
		again, err := decodeMsg(appendMsg(nil, m))
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encode changed message:\n got %+v\nwant %+v", again, m)
		}
	})
}
