package model

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// interleavedWithSpare shrinks the Interleaved PRIVATE workload to one
// client pair and appends an empty spare region: HotProb 1 keeps every
// access inside the interleaved hot pages, so pages [2*HotPages, DBPages)
// carry no traffic and are free destinations for the planner's moves —
// the same role the live server's reserved spare region plays.
func interleavedWithSpare() workload.Spec {
	w := workload.InterleavedPrivateSpec(0.5)
	w.NumClients = 2
	w.HotPages = 10
	w.DBPages = 2*10 + 10
	w.HotProb = 1.0
	return w
}

// TestSimReclusterRecoversInterleavedThroughput is the deterministic
// reproduction of the tentpole effect: under the page-locking protocols,
// the Interleaved PRIVATE placement makes the client pair ping-pong page
// write locks they never truly conflict on; splitting the pages along the
// heat collector's writer evidence must recover most of that throughput.
// PS and PS-AA pay for false sharing in page-lock blocks and callbacks,
// PS-OA in callbacks alone (its write locks are per object). OS and PS-OO
// keep object-grained copies, so they have none to remove and must merely
// not lose. The sim's version of a migration is a layout
// rewrite between two same-seed runs (Config.Layout + RemapWithMoves), so
// the measured delta is purely the placement change.
func TestSimReclusterRecoversInterleavedThroughput(t *testing.T) {
	for _, tc := range []struct {
		proto   core.Protocol
		minGain float64 // after/before throughput; above 1, callbacks must drop
		blocks  bool    // page write locks queue the pair: blocks must drop
	}{
		{core.PS, 1.5, true},
		{core.PSOA, 1.5, false},
		{core.PSAA, 1.5, true},
		{core.OS, 0.9, false},
		{core.PSOO, 0.9, false},
	} {
		tc := tc
		t.Run(tc.proto.String(), func(t *testing.T) {
			t.Parallel()
			simRecluster(t, tc.proto, tc.minGain, tc.blocks)
		})
	}
}

func simRecluster(t *testing.T, proto core.Protocol, minGain float64, blocks bool) {
	spec := interleavedWithSpare()
	userPages := 2 * spec.HotPages // suspects live here; the rest is spare

	// Size both tiers to hold the whole (tiny) database: with buffer
	// misses out of the way, page-lock ping-pong is the bottleneck — the
	// regime the reclusterer exists for — and the run commits enough
	// transactions for the write evidence to cover the hot slots.
	mkcfg := func() Config {
		cfg := shortConfig(proto, spec)
		cfg.ClientBufPages = spec.DBPages
		cfg.ServerBufPages = spec.DBPages
		cfg.Warmup = 5
		cfg.Measure = 120
		return cfg
	}

	heat := obs.NewHeat(obs.HeatOptions{TopK: 32})
	heat.SetEnabled(true)
	cfg := mkcfg()
	cfg.Heat = heat
	before := Run(cfg)
	if before.Commits == 0 {
		t.Fatal("interleaved run committed nothing")
	}

	sn := heat.Snapshot()
	groups := obs.PlanMoves(sn, obs.PlanOptions{
		MaxMoves:    spec.DBPages * spec.ObjsPerPage, // no pacing: split everything at once
		UserPages:   int32(userPages),
		ObjsPerPage: spec.ObjsPerPage,
	})
	moved := obs.PlannedObjects(groups)
	// Every hot page hosts both writers' disjoint halves, so the planner
	// should implicate most of the region (evidence covers the slots the
	// run actually wrote, not necessarily all of them).
	if pages := len(groups); pages < userPages/2 {
		t.Fatalf("planner split only %d of %d shared pages (moved %d): %+v",
			pages, userPages, moved, groups)
	}
	for _, g := range groups {
		if int(g.Page) >= userPages {
			t.Fatalf("planned a move off spare page %d: %+v", g.Page, g)
		}
	}

	cfg2 := mkcfg()
	cfg2.Layout = RemapWithMoves(spec.Layout(), groups, userPages)
	after := Run(cfg2)

	gain := after.Throughput / before.Throughput
	t.Logf("%v interleaved: %.1f -> %.1f txn/s (%.2fx) after splitting %d pages (%d objects moved)",
		proto, before.Throughput, after.Throughput, gain, len(groups), moved)
	if gain < minGain {
		t.Fatalf("reclustered layout gave %.2fx (%.1f -> %.1f txn/s), want >= %.2fx",
			gain, before.Throughput, after.Throughput, minGain)
	}
	// The split removes ping-pong, it does not add work: blocks and
	// callbacks must drop, not merely shift.
	if blocks && after.Blocks >= before.Blocks {
		t.Errorf("blocks did not drop: %d -> %d", before.Blocks, after.Blocks)
	}
	if minGain > 1 && after.Callbacks >= before.Callbacks {
		t.Errorf("callbacks did not drop: %d -> %d", before.Callbacks, after.Callbacks)
	}
}

// TestRemapWithMovesIsPermutation pins the rewrite's core invariant: the
// result maps the logical space onto the physical space bijectively, with
// exactly the planned slots relocated.
func TestRemapWithMovesIsPermutation(t *testing.T) {
	spec := workload.InterleavedPrivateSpec(0.5)
	l := spec.Layout()
	groups := []obs.MoveGroup{
		{Page: 0, Writer: 2, Slots: []uint16{10, 11, 12}},
		{Page: 1, Writer: 2, Slots: []uint16{10}},
		{Page: 2, Writer: 4, Slots: []uint16{15}},
	}
	out := RemapWithMoves(l, groups, l.NumPages-2)

	seen := make(map[core.ObjID]int, out.NumObjects())
	for i := 0; i < out.NumObjects(); i++ {
		id := out.Obj(i)
		if prev, dup := seen[id]; dup {
			t.Fatalf("physical slot %v backs logicals %d and %d", id, prev, i)
		}
		seen[id] = i
	}
	// Writers 2 and 4 must not share a destination page (the whole point
	// of the split), and each consumed spare page must host only movers
	// from one group's writer.
	spare := core.PageID(l.NumPages - 2)
	writerPage := make(map[core.PageID]int32)
	for _, g := range groups {
		for _, slot := range g.Slots {
			from := core.ObjID{Page: core.PageID(g.Page), Slot: slot}
			logical := -1
			for i := 0; i < l.NumObjects(); i++ {
				if l.Obj(i) == from {
					logical = i
					break
				}
			}
			got := out.Obj(logical)
			if got.Page < spare {
				t.Fatalf("moved object %v still below the spare region: %v", from, got)
			}
			if w, ok := writerPage[got.Page]; ok && w != g.Writer {
				t.Fatalf("writers %d and %d share destination page %d", w, g.Writer, got.Page)
			}
			writerPage[got.Page] = g.Writer
		}
	}
}
