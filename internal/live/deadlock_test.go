package live

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestFindVictims pins the cross-shard victim rule, which must match the
// engines' own: a system transaction on a cycle dies, else the highest id.
func TestFindVictims(t *testing.T) {
	type graph = map[core.TxnID][]core.TxnID
	for _, tc := range []struct {
		name   string
		edges  graph
		system map[core.TxnID]bool
		want   []core.TxnID
	}{
		{"no cycle", graph{1: {2}, 2: {3}}, nil, nil},
		{"two-cycle, youngest dies", graph{1: {2}, 2: {1}}, nil, []core.TxnID{2}},
		{"three-cycle, youngest dies", graph{1: {2}, 2: {3}, 3: {1}}, nil, []core.TxnID{3}},
		{"older system txn dies", graph{1: {2}, 2: {1}}, map[core.TxnID]bool{1: true}, []core.TxnID{1}},
		{"system txn off the cycle is spared", graph{1: {2}, 2: {1}, 3: {1}}, map[core.TxnID]bool{3: true}, []core.TxnID{2}},
		{"one kill per cycle", graph{1: {2}, 2: {1}, 3: {4}, 4: {3}}, map[core.TxnID]bool{3: true}, []core.TxnID{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := findVictims(tc.edges, tc.system); !slices.Equal(got, tc.want) {
				t.Fatalf("findVictims = %v, want %v", got, tc.want)
			}
		})
	}
}
