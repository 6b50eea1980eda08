package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FlightRecorder writes crash blackboxes: on a server panic, fail-stop,
// or audit failure, Dump atomically persists the trace ring, heat
// snapshot, commit-stage spans, and a metrics snapshot as one timestamped
// JSONL file, pruning the oldest dumps beyond a bounded count. A nil
// recorder (no directory configured) is a no-op, so callers never guard.
//
// File format (one JSON object per line):
//
//	{"type":"header","format":1,"reason":...,"unix_ns":...,...}
//	{"type":"trace","event":{...}}    one line per retained trace event
//	{"type":"heat","snapshot":{...}}
//	{"type":"spans","snapshot":{...}}
//	{"type":"metrics","prometheus":"..."}   the full text exposition
type FlightRecorder struct {
	mu  sync.Mutex
	dir string
	max int
	seq int
}

// DefaultBlackboxMax is the live server's bound on retained dumps.
const DefaultBlackboxMax = 8

// NewFlightRecorder returns a recorder writing into dir, keeping at most
// max (> 0) dumps. Empty dir returns nil.
func NewFlightRecorder(dir string, max int) *FlightRecorder {
	if dir == "" {
		return nil
	}
	return &FlightRecorder{dir: dir, max: max}
}

// Dir returns the blackbox directory ("" for a nil recorder).
func (f *FlightRecorder) Dir() string {
	if f == nil {
		return ""
	}
	return f.dir
}

// Dump writes one blackbox file and returns its path. Any of tr, heat,
// spans, reg may be nil (their sections are omitted). The write is
// tmp+fsync+rename so a crash mid-dump never leaves a torn blackbox, and
// dumps beyond the retention bound are pruned oldest-first.
func (f *FlightRecorder) Dump(reason string, tr *Tracer, heat *Heat, spans *Spans, reg *Registry) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++

	var buf bytes.Buffer
	now := time.Now()
	reasonJSON, _ := json.Marshal(reason)
	fmt.Fprintf(&buf, `{"type":"header","format":1,"reason":%s,"unix_ns":%d`,
		reasonJSON, now.UnixNano())
	if tr != nil {
		fmt.Fprintf(&buf, `,"trace_enabled":%v,"trace_dropped":%d`, tr.Enabled(), tr.Dropped())
	}
	if heat != nil {
		fmt.Fprintf(&buf, `,"heat_enabled":%v,"heat_epochs":%d`, heat.Enabled(), heat.Epochs())
	}
	buf.WriteString("}\n")
	if tr != nil {
		var eb []byte
		for _, e := range tr.Last(0) {
			buf.WriteString(`{"type":"trace","event":`)
			eb = e.appendJSON(eb[:0])
			buf.Write(eb)
			buf.WriteString("}\n")
		}
	}
	if heat != nil {
		hs, err := json.Marshal(heat.Snapshot())
		if err != nil {
			return "", err
		}
		buf.WriteString(`{"type":"heat","snapshot":`)
		buf.Write(hs)
		buf.WriteString("}\n")
	}
	if spans != nil {
		ss, err := json.Marshal(spans.Snapshot())
		if err != nil {
			return "", err
		}
		buf.WriteString(`{"type":"spans","snapshot":`)
		buf.Write(ss)
		buf.WriteString("}\n")
	}
	if reg != nil {
		var mb bytes.Buffer
		if err := reg.WritePrometheus(&mb); err != nil {
			return "", err
		}
		ms, err := json.Marshal(mb.String())
		if err != nil {
			return "", err
		}
		buf.WriteString(`{"type":"metrics","prometheus":`)
		buf.Write(ms)
		buf.WriteString("}\n")
	}

	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("blackbox-%s-%03d.jsonl",
		now.UTC().Format("20060102T150405.000000000"), f.seq)
	path := filepath.Join(f.dir, name)
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if _, err := file.Write(buf.Bytes()); err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	f.pruneLocked()
	return path, nil
}

// pruneLocked deletes the oldest dumps beyond the retention bound. The
// timestamped names sort chronologically, so lexical order is age order.
func (f *FlightRecorder) pruneLocked() {
	matches, err := filepath.Glob(filepath.Join(f.dir, "blackbox-*.jsonl"))
	if err != nil || len(matches) <= f.max {
		return
	}
	sort.Strings(matches)
	for _, old := range matches[:len(matches)-f.max] {
		os.Remove(old)
	}
}
