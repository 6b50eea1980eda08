package live

import (
	"sort"
	"time"

	"repro/internal/core"
)

// Cross-shard deadlock detection.
//
// Each engine shard runs the synchronous per-request detector it always
// had, which is complete for cycles whose every edge lives on one shard
// (a dependency on a transaction blocked elsewhere dead-ends in the
// local graph, so sharding introduces no false positives there). A cycle
// whose edges span shards — T1 blocked on shard A waiting for T2, T2
// blocked on shard B waiting for T1 — is invisible to both locals, so a
// background pass merges the per-shard waits-for graphs and hunts cycles
// in the union.
//
// The merged graph is a snapshot assembled one shard lock at a time, so
// it can be stale: an edge may have dissolved (grant, abort) by the time
// the cycle is found. Genuine deadlock edges, however, are stable — no
// one dissolves them but us — so the detector confirms each candidate
// with a second snapshot and only aborts a victim both found parked on
// the SAME request, and then only if, under its home shard's lock, it is
// still parked on that request. Request ids grow per client, so "same
// request three times" means the victim never moved in between; a
// transaction id alone does not (a victim that was granted and blocked
// again elsewhere looks identical by id, and aborting it would answer a
// request it no longer has). That keeps detection deterministic for a
// quiesced cycle (same victim rule as the engines: a system client's
// transaction on the cycle dies, else the highest transaction id) and
// makes a false abort impossible for any cycle that is actually a
// deadlock.

// dlInterval is the background sweep period (see OpenServer for the
// loop; pokes make real cycles resolve much faster).
const dlInterval = 50 * time.Millisecond

// pokeDetector nudges the cross-shard detector (non-blocking; a full
// channel means a sweep is already pending). No-op with one shard.
func (s *Server) pokeDetector() {
	if s.dlPoke == nil {
		return
	}
	select {
	case s.dlPoke <- struct{}{}:
	default:
	}
}

// dlSnapshot is one merged waits-for graph: edges unions every shard's
// local graph; home records which shard each blocked transaction is
// parked on (where its queued request — and therefore its abort — lives)
// and req which request it is parked on there; system marks the waiters
// that belong to a system client (the reclustering planner).
type dlSnapshot struct {
	edges  map[core.TxnID][]core.TxnID
	home   map[core.TxnID]*engineShard
	req    map[core.TxnID]int64
	system map[core.TxnID]bool
}

// collectWaitGraph merges the shards' waits-for graphs, one lock at a
// time. Never holds two shard locks at once: a skewed-in-time snapshot
// is fine (see the confirmation pass), serializing the engine is not.
func (s *Server) collectWaitGraph() dlSnapshot {
	snap := dlSnapshot{
		edges:  make(map[core.TxnID][]core.TxnID),
		home:   make(map[core.TxnID]*engineShard),
		req:    make(map[core.TxnID]int64),
		system: make(map[core.TxnID]bool),
	}
	for _, sh := range s.shards {
		held := s.lockShard(sh)
		sh.eng.WaitGraph(func(t core.TxnID, c core.ClientID, req int64, deps []core.TxnID) {
			snap.edges[t] = append(snap.edges[t], deps...)
			// A transaction has at most one queued request system-wide
			// (clients are synchronous), so at most one shard reports it
			// blocked.
			snap.home[t] = sh
			snap.req[t] = req
			if int64(c) == s.internalID.Load() {
				snap.system[t] = true
			}
		})
		s.unlockShard(sh, held)
	}
	return snap
}

// findVictims returns the victims the engines' own rule would pick,
// deterministically: walk transactions in ascending id order, and for
// each cycle found abort its system transaction if it has one, else the
// highest id on it; repeat on the graph minus the dead until no cycle
// remains.
func findVictims(edges map[core.TxnID][]core.TxnID, system map[core.TxnID]bool) []core.TxnID {
	starts := make([]core.TxnID, 0, len(edges))
	for t := range edges {
		starts = append(starts, t)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	dead := make(map[core.TxnID]bool)
	var victims []core.TxnID
	for {
		found := false
		for _, start := range starts {
			if dead[start] {
				continue
			}
			if cyc := findCycle(start, edges, dead); cyc != nil {
				victim := cyc[0]
				for _, t := range cyc {
					if system[t] != system[victim] {
						if system[t] {
							victim = t
						}
					} else if t > victim {
						victim = t
					}
				}
				dead[victim] = true
				victims = append(victims, victim)
				found = true
				break // restart: the kill may have broken other cycles
			}
		}
		if !found {
			return victims
		}
	}
}

// findCycle DFSes from start and returns one cycle through it (the
// node set of the cycle), or nil. dead transactions are skipped.
func findCycle(start core.TxnID, edges map[core.TxnID][]core.TxnID, dead map[core.TxnID]bool) []core.TxnID {
	var path []core.TxnID
	onPath := make(map[core.TxnID]int)
	visited := make(map[core.TxnID]bool)
	var dfs func(t core.TxnID) []core.TxnID
	dfs = func(t core.TxnID) []core.TxnID {
		if i, ok := onPath[t]; ok {
			return append([]core.TxnID(nil), path[i:]...)
		}
		if visited[t] || dead[t] {
			return nil
		}
		visited[t] = true
		onPath[t] = len(path)
		path = append(path, t)
		for _, d := range edges[t] {
			if dead[d] {
				continue
			}
			if cyc := dfs(d); cyc != nil {
				return cyc
			}
		}
		delete(onPath, t)
		path = path[:len(path)-1]
		return nil
	}
	return dfs(start)
}

// CheckDeadlocks runs one cross-shard detection pass and returns how
// many victims it aborted. Exported for tests; normal operation runs it
// from the background loop. Safe to call with one shard (finds nothing
// the local detector didn't).
func (s *Server) CheckDeadlocks() int {
	first := s.collectWaitGraph()
	candidates := findVictims(first.edges, first.system)
	if len(candidates) == 0 {
		return 0
	}

	// Confirmation pass: re-snapshot and keep only victims both passes
	// found parked on the same request. A transaction on a real deadlock
	// cycle has not moved; one that was merely slow has.
	second := s.collectWaitGraph()
	confirmed := findVictims(second.edges, second.system)
	firstReq := make(map[core.TxnID]int64, len(candidates))
	for _, t := range candidates {
		firstReq[t] = first.req[t]
	}

	aborted := 0
	var after []*session
	for _, t := range confirmed {
		req, sh := second.req[t], second.home[t]
		if sh == nil || firstReq[t] != req {
			continue
		}
		held := s.lockShard(sh)
		outs, ok := sh.eng.AbortDeadlockVictim(t, req)
		if ok {
			after = s.stage(nil, outs, after)
		}
		s.unlockShard(sh, held)
		if !ok {
			continue // resolved between snapshot and abort; nothing died
		}
		aborted++
		s.metrics.crossShardDeadlocks.Inc()
		s.bsMu.Lock()
		delete(s.blockStart, t)
		s.bsMu.Unlock()
	}
	s.settle(after)
	return aborted
}
