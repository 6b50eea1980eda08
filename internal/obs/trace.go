package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one transaction-lifecycle trace event. The values
// cover the paper's protocol vocabulary: lock requests, blocking, grants,
// callback rounds, and transaction outcomes.
type EventKind uint8

const (
	EvNone        EventKind = iota
	EvBegin                 // server first sees the transaction
	EvLockReq               // read/write request arrived (Extra: 1 = write)
	EvBlock                 // request queued behind a conflict
	EvGrant                 // write permission granted (Extra: grant level, 1 obj / 2 page)
	EvRound                 // callback round started (Extra: fan-out)
	EvCallback              // one callback message sent to Client
	EvCallbackAck           // callback answered (Extra: 1 = busy reply)
	EvCommit                // transaction committed
	EvAbort                 // transaction aborted (Extra: 1 = disconnect cleanup)
	EvDeadlock              // chosen as deadlock victim
	EvDeesc                 // de-escalation requested from the page-X holder
	EvLeaseExpiry           // client deposed for an overdue callback answer
	EvRoundCancel           // round cancelled with Client's answer outstanding (Extra: round id)
	EvCommitStage           // commit pipeline stage finished (Slot: CommitStage, Extra: duration ns)
)

var eventKindNames = [...]string{
	"none", "begin", "lock-request", "block", "grant", "round", "callback-sent",
	"callback-acked", "commit", "abort", "deadlock-victim", "deesc-request",
	"lease-expiry", "round-cancel", "commit-stage",
}

func (k EventKind) String() string {
	if int(k) >= len(eventKindNames) {
		return "EventKind(?)"
	}
	return eventKindNames[k]
}

// Event is one trace record. IDs are widened to plain integers so the
// package stays dependency-free; AtNs is monotonic nanoseconds since the
// tracer was created.
type Event struct {
	Seq    uint64
	AtNs   int64
	Kind   EventKind
	Txn    int64
	Client int32
	Page   int32
	Slot   int32
	Extra  int64
}

// appendJSON renders the event as one JSON object (no trailing newline).
func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = appendInt(b, int64(e.Seq))
	b = append(b, `,"at_ns":`...)
	b = appendInt(b, e.AtNs)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","txn":`...)
	b = appendInt(b, e.Txn)
	b = append(b, `,"client":`...)
	b = appendInt(b, int64(e.Client))
	b = append(b, `,"page":`...)
	b = appendInt(b, int64(e.Page))
	b = append(b, `,"slot":`...)
	b = appendInt(b, int64(e.Slot))
	b = append(b, `,"extra":`...)
	b = appendInt(b, e.Extra)
	b = append(b, '}')
	return b
}

func appendInt(b []byte, v int64) []byte {
	return fmt.Appendf(b, "%d", v)
}

// String renders the event as its JSONL line.
func (e Event) String() string { return string(e.appendJSON(nil)) }

// Tracer is a runtime-switchable, ring-buffered event log. It is lossy by
// design: when the ring wraps, old events are overwritten, and when a
// writer cannot take the buffer lock immediately the event is dropped and
// counted rather than ever stalling the hot path. Disabled, Emit is one
// atomic load.
type Tracer struct {
	enabled atomic.Bool
	dropped atomic.Int64
	start   time.Time

	mu   sync.Mutex
	buf  []Event
	next uint64 // total events written; buf[(next-1) % len] is newest
}

// DefaultTraceBuf is the live server's ring capacity in events.
const DefaultTraceBuf = 4096

// NewTracer returns a disabled tracer with the given ring capacity (> 0).
func NewTracer(size int) *Tracer {
	return &Tracer{start: time.Now(), buf: make([]Event, size)}
}

// SetEnabled switches tracing on or off at runtime.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Dropped returns the number of events lost to record-path contention.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Seq returns the total number of events recorded since creation.
func (t *Tracer) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Emit records one event if tracing is enabled.
func (t *Tracer) Emit(k EventKind, txn int64, client, page, slot int32, extra int64) {
	if !t.enabled.Load() {
		return
	}
	at := time.Since(t.start).Nanoseconds()
	if !t.mu.TryLock() {
		t.dropped.Add(1)
		return
	}
	t.buf[t.next%uint64(len(t.buf))] = Event{
		Seq: t.next, AtNs: at, Kind: k, Txn: txn, Client: client,
		Page: page, Slot: slot, Extra: extra,
	}
	t.next++
	t.mu.Unlock()
}

// last returns up to n retained events, oldest first, filtered (keep when
// filter is nil or returns true). n <= 0 means all retained events.
func (t *Tracer) last(n int, filter func(*Event) bool) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.buf))
	count := t.next
	if count > size {
		count = size
	}
	var out []Event
	for i := t.next - count; i < t.next; i++ {
		e := &t.buf[i%size]
		if filter == nil || filter(e) {
			out = append(out, *e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Last returns the last n retained events, oldest first.
func (t *Tracer) Last(n int) []Event { return t.last(n, nil) }

// ForTxn returns the last n retained events involving transaction txn.
func (t *Tracer) ForTxn(txn int64, n int) []Event {
	return t.last(n, func(e *Event) bool { return e.Txn == txn })
}

// ForPage returns the last n retained events touching page p — the net to
// cast when a failed audit implicates an object but not a transaction:
// the page's history names every transaction that touched it.
func (t *Tracer) ForPage(p int32, n int) []Event {
	return t.last(n, func(e *Event) bool { return e.Page == p })
}

// WriteJSONL writes the last n retained events (all if n <= 0), filtered
// to transaction txn if txn != 0, as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer, n int, txn int64) error {
	var filter func(*Event) bool
	if txn != 0 {
		filter = func(e *Event) bool { return e.Txn == txn }
	}
	return t.WriteJSONLFiltered(w, n, filter)
}

// WriteJSONLFiltered writes the last n retained events (all if n <= 0)
// matching filter (nil: all) as JSON lines — the building block for the
// admin endpoint's txn/page query combinations.
func (t *Tracer) WriteJSONLFiltered(w io.Writer, n int, filter func(*Event) bool) error {
	var b []byte
	for _, e := range t.last(n, filter) {
		b = e.appendJSON(b[:0])
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// FormatEvents renders events as an indented multi-line block for test
// failure logs.
func FormatEvents(evs []Event) string {
	var sb strings.Builder
	for _, e := range evs {
		sb.WriteString("  ")
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
