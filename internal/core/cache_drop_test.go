package core

import (
	"math/rand"
	"testing"
)

// TestDropHookSeesEveryDeparture runs the differential of
// TestClientMatchesNaiveModel with ClientCache.OnDrop set: the hook must
// change nothing the naive model can see, and it must be told of every
// entry that leaves the cache — eviction, purge or abort — exactly once,
// with that entry's payload, after the cache stopped referring to it. The
// live client hands the payload's buffer to its transport on that call, or
// at the next Begin if the entry was pinned.
func TestDropHookSeesEveryDeparture(t *testing.T) {
	for _, proto := range AllProtocols {
		for seed := int64(1); seed <= 3; seed++ {
			capacity := 4
			if proto == OS {
				capacity *= 3
			}
			d := &diffRun{t: t, rng: rand.New(rand.NewSource(seed)),
				cs:    NewClientState(3, proto, capacity),
				nv:    newNaive(3, proto, capacity),
				pages: 10, slots: 6}
			c := d.cs.Cache
			live := map[int]bool{} // tags of the entries the cache holds
			next := 0
			c.OnDrop = func(payload any, _ bool) {
				tag, tagged := payload.(int)
				if !tagged {
					return // came and went within one step
				}
				if !live[tag] {
					t.Fatalf("%v seed %d: entry %d dropped twice, or never resident", proto, seed, tag)
				}
				delete(live, tag)
			}
			tag := func(e *entry) {
				if e.Payload == nil {
					next++
					e.Payload = next
					live[next] = true
				}
			}
			for i := 0; i < 1500; i++ {
				d.one()
				d.observe()
				d.invariants()
				resident := 0
				for _, cp := range c.pages {
					if cp == nil {
						continue // the page table is dense
					}
					tag(&cp.entry)
					resident++
				}
				for _, co := range c.objs {
					tag(&co.entry)
					resident++
				}
				for e := c.mru; e != nil; e = e.older {
					if !live[e.Payload.(int)] {
						t.Fatalf("%v seed %d step %d: resident entry %v was reported dropped", proto, seed, i, e.id)
					}
				}
				if resident != len(live) {
					t.Fatalf("%v seed %d step %d: %d entries resident, %d not yet reported dropped",
						proto, seed, i, resident, len(live))
				}
			}
			if next == len(live) {
				t.Fatalf("%v seed %d: nothing ever left the cache; the run exercised no drop", proto, seed)
			}
		}
	}
}
