package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/workload"
)

// The traced pass records spans in the driver only, around each call
// into the program: one `txn` root per logical transaction with
// next_txn / begin / read_hit / read_miss / write / commit children.
// Spans inside the program are a later issue.

type spanKind uint8

const (
	spTxn spanKind = iota
	spNextTxn
	spBegin
	spReadHit
	spReadMiss
	spWrite
	spCommit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "next_txn", "begin", "read_hit", "read_miss", "write", "commit"}

// span is one timed call; start and end are ns since the window opened.
// Children carry their logical transaction's number; the root is
// appended after them, when the commit is acknowledged.
type span struct {
	kind       spanKind
	txn        uint32
	start, end int64
}

// recorder holds one client's spans in memory; nothing is written until
// the window has closed. Every span is counted into the per-name totals
// the metrics use; the spans themselves are kept only for the oldest
// transactions, up to the trace file's cap.
type recorder struct {
	txn          uint32
	count, total [numSpanKinds]int64
	spans        []span
	full         bool
}

// nextTxn draws the next reference string under a next_txn span.
func (r *recorder) nextTxn(gen *workload.Generator, base time.Time) []workload.Ref {
	start := int64(time.Since(base))
	refs := gen.NextTxn()
	r.txn++
	r.add(spNextTxn, start, base)
	return refs
}

// add closes a span that began at start and returns its end, which is
// the next span's start.
func (r *recorder) add(kind spanKind, start int64, base time.Time) int64 {
	end := int64(time.Since(base))
	r.record(span{kind: kind, txn: r.txn, start: start, end: end})
	return end
}

func (r *recorder) record(s span) {
	r.count[s.kind]++
	r.total[s.kind] += s.end - s.start
	if !r.full {
		r.spans = append(r.spans, s)
	}
}

// closeTxn records the root. The cap is only applied here, between
// transactions, so a kept transaction is kept whole.
func (r *recorder) closeTxn(start, end int64) {
	r.record(span{kind: spTxn, txn: r.txn, start: start, end: end})
	r.full = r.full || len(r.spans) >= maxTraceSpans/numClients
}

// traceMetrics derives the span-based layer metrics and the self-time
// table. A child has no children, so its self time is its duration; the
// root's self time is what its children do not cover.
func traceMetrics(res *liveResult, clients []*client) {
	var count, total [numSpanKinds]int64
	for _, c := range clients {
		for k := range count {
			count[k] += c.rec.count[k]
			total[k] += c.rec.total[k]
		}
	}
	mean := func(k spanKind) float64 { return ratio(float64(total[k]), float64(count[k])) }
	res.m["workload.next_txn_us"] = mean(spNextTxn) / 1e3
	res.m["live.client.read_hit_ns"] = mean(spReadHit)
	res.m["live.client.read_miss_us"] = mean(spReadMiss) / 1e3
	res.m["live.client.write_us"] = mean(spWrite) / 1e3
	res.m["live.client.commit_us"] = mean(spCommit) / 1e3

	var children int64
	for k := spBegin; k < numSpanKinds; k++ {
		children += total[k]
	}
	// What the caller waited is the root minus the generator's share.
	res.m["trace.coverage_share"] = ratio(float64(children), float64(total[spTxn]-total[spNextTxn]))

	res.notes = append(res.notes, "span self time (traced slices):")
	self := total
	self[spTxn] -= children + total[spNextTxn]
	for k := spTxn; k < numSpanKinds; k++ {
		res.notes = append(res.notes, fmt.Sprintf("  %-10s n=%-9d self=%8.1f ms  mean=%10.0f ns  share=%.3f",
			spanNames[k], count[k], float64(self[k])/1e6, ratio(float64(self[k]), float64(count[k])),
			ratio(float64(self[k]), float64(total[spTxn]))))
	}
}

// maxTraceSpans caps the spans kept for the JSONL file: a cache-resident
// workload records millions in a window, and the file is for reading,
// not for the metrics (those count every span).
const maxTraceSpans = 200000

// writeTrace writes whole transactions, oldest first, as JSON lines:
// the root span then its children, linked by parent id.
func writeTrace(path string, clients []*client) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	id := 0
	for _, c := range clients {
		first := 0
		for i, s := range c.rec.spans {
			if s.kind != spTxn {
				continue
			}
			group := c.rec.spans[first : i+1]
			first = i + 1
			id++
			root := id
			line := func(s span, id, parent int) {
				fmt.Fprintf(w, `{"id":%d,"parent":%d,"txn":"c%d-%d","name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
					id, parent, c.id, s.txn, spanNames[s.kind], s.start, s.end)
			}
			line(s, root, 0)
			for _, child := range group[:len(group)-1] {
				id++
				line(child, id, root)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
