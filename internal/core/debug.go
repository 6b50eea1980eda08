package core

import (
	"fmt"
	"sort"
	"strings"
)

// DumpState renders the engine's wait state for diagnostics: every tracked
// transaction with its blocked request, open round, lock holdings, and
// computed waits-for edges.
func (se *ServerEngine) DumpState() string {
	var b strings.Builder
	var ids []TxnID
	for t := range se.txns {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := se.txns[id]
		fmt.Fprintf(&b, "txn %d (client %d, aborting=%v): locks=%d", t.id, t.client, t.aborting, se.Locks.LockCount(t.id))
		if t.blocked != nil {
			fmt.Fprintf(&b, " BLOCKED %v on obj %v (write=%v)", t.blocked.msg.Kind, t.blocked.msg.Obj, t.blocked.isWrite)
		}
		if t.round != nil {
			fmt.Fprintf(&b, " ROUND %d page %d obj %v pending=%v busy=%v",
				t.round.id, t.round.page, t.round.obj, keysOf(t.round.pending), t.round.busy)
		}
		fmt.Fprintf(&b, " waitsFor=%v\n", se.waitsFor(t))
	}
	for p, ps := range se.pages {
		if len(ps.queue) > 0 {
			fmt.Fprintf(&b, "queue page %d: %d reqs\n", p, len(ps.queue))
		}
	}
	return b.String()
}

func keysOf(m map[ClientID]bool) []ClientID {
	var out []ClientID
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
